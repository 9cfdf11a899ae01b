package oss

// StoreUnderTest lets the external test package run the Store contract
// over implementations that import this one.
var StoreUnderTest = storeUnderTest
