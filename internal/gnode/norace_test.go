//go:build !race

package gnode

// raceEnabled: see race_test.go.
const raceEnabled = false
