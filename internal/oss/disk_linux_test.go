//go:build linux

package oss

import (
	"path/filepath"
	"syscall"
	"testing"
)

// TestDiskListStaysUnderPrefix: a List under one prefix opens no directory
// of a sibling tree — its cost follows the prefix, not the repository. The
// observable is inotify's: reading a directory opens it, and every open of
// a watched directory queues an event.
func TestDiskListStaysUnderPrefix(t *testing.T) {
	root := t.TempDir()
	d, err := NewDisk(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"catalog/f/v0", "catalog/g/v0", "containers/C1.data", "containers/sub/C2.data", "recipes/f/0"} {
		if err := d.Put(k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	defer syscall.Close(fd)
	watch := func(dirs ...string) {
		for _, dir := range dirs {
			if _, err := syscall.InotifyAddWatch(fd, filepath.Join(root, dir), syscall.IN_OPEN); err != nil {
				t.Skipf("inotify watch %s: %v", dir, err)
			}
		}
	}
	opened := func() bool {
		var buf [4096]byte
		n, err := syscall.Read(fd, buf[:])
		if err == syscall.EAGAIN {
			return false
		}
		if err != nil || n <= 0 {
			t.Fatalf("inotify read: %d, %v", n, err)
		}
		return true
	}
	watch("containers", "containers/sub", "recipes", "catalog/g")
	for _, prefix := range []string{"catalog/f/", "catalog/f", "catalog/f/v", "missing/", "top"} {
		if _, err := d.List(prefix); err != nil {
			t.Fatal(err)
		}
		if opened() {
			t.Errorf("List(%q) opened a directory outside its prefix", prefix)
		}
	}
	// The watch does see a walk that goes there.
	if _, err := d.List("containers/"); err != nil {
		t.Fatal(err)
	}
	if !opened() {
		t.Fatal("inotify reported nothing for a List of the watched tree")
	}
}
