// Package xlock takes file stripes on behalf of callers in another
// package. Nothing here is wrong in isolation: an inversion exists only
// when a caller holds a container stripe, one package away.
package xlock

import "slimstore/internal/core"

// TouchFile locks the file stripe for name and releases it.
func TouchFile(fl *core.FileLocks, name string) {
	fl.Lock(name)
	defer fl.Unlock(name)
}

// TouchViaHelper adds a frame, so the acquisition sits two calls and a
// package boundary away from the caller's.
func TouchViaHelper(fl *core.FileLocks, name string) {
	TouchFile(fl, name)
}
