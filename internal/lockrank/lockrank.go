// Package lockrank is the run-time check on the lock hierarchy of
// DESIGN.md §7, maintMu → FileLocks → ContainerLocks. Each goroutine's
// ranked acquisitions are recorded with their sites. Taking a rank no
// higher than one held panics naming both sites, as does releasing a rank
// not held; leakcheck.Main fails a package whose tests end with one held.
// Like the kernel's lockdep it judges the order one goroutine takes locks
// in on any run, so each site need only run once under a test. It is on
// only in a test binary (poison.On); elsewhere each call is one branch.
package lockrank

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"slimstore/internal/poison"
)

// Rank is a ranked lock family; a goroutine takes them in ascending order.
type Rank uint8

const (
	Maint     Rank = 1 + iota // the G-node's maintMu (core.MaintLock)
	File                      // core.FileLocks
	Container                 // core.ContainerLocks
)

var names = [...]string{Maint: "maintMu", File: "FileLocks", Container: "ContainerLocks"}

func (r Rank) String() string { return names[r] }

// sites holds, per rank, the PC of the site that took it; 0 is not held.
type sites [Container + 1]uintptr

var (
	mu   sync.Mutex
	held = map[uint64]sites{} // by goroutine ID
)

// Acquire records that the calling goroutine is about to take r. The lock
// method calling it does so before it blocks, so that an inversion panics
// instead of deadlocking; the site recorded is that method's caller.
func Acquire(r Rank) {
	if !poison.On() {
		return
	}
	pc, g := caller(), goid()
	mu.Lock()
	defer mu.Unlock()
	h := held[g]
	for q := r; q <= Container; q++ {
		if h[q] != 0 {
			panic(fmt.Sprintf("lockrank: %v taken at %s while %v is held, taken at %s (order: maintMu → FileLocks → ContainerLocks)",
				r, site(pc), q, site(h[q])))
		}
	}
	h[r] = pc
	held[g] = h
}

// Release records that the calling goroutine has let r go.
func Release(r Rank) {
	if !poison.On() {
		return
	}
	g := goid()
	mu.Lock()
	defer mu.Unlock()
	h := held[g]
	if h[r] == 0 {
		panic(fmt.Sprintf("lockrank: %v released at %s by goroutine %d, which does not hold it", r, site(caller()), g))
	}
	h[r] = 0
	if held[g] = h; h == (sites{}) {
		delete(held, g)
	}
}

// Held describes every rank still held, by any goroutine, with the site
// that took it, in a stable order.
func Held() []string {
	mu.Lock()
	defer mu.Unlock()
	var out []string
	for g, h := range held {
		for r := Maint; r <= Container; r++ {
			if h[r] != 0 {
				out = append(out, fmt.Sprintf("%v held by goroutine %d, taken at %s", r, g, site(h[r])))
			}
		}
	}
	sort.Strings(out)
	return out
}

// caller is the return PC into the function that called the lock method
// that called Acquire or Release.
func caller() uintptr {
	var pc [1]uintptr
	runtime.Callers(4, pc[:]) // Callers, caller, Acquire/Release, the lock method
	return pc[0]
}

// site renders a return PC as "function (file:line)".
func site(pc uintptr) string {
	f, _ := runtime.CallersFrames([]uintptr{pc}).Next()
	return fmt.Sprintf("%s (%s:%d)", f.Function, f.File, f.Line)
}

// goid parses the calling goroutine's ID from its stack header,
// "goroutine 123 [running]:".
func goid() uint64 {
	var buf [32]byte
	id, _ := strconv.ParseUint(strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1], 10, 64)
	return id
}
