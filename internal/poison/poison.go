// Package poison is the run-time check on pooled memory (DESIGN.md §9).
// In a test binary — On decides, and nothing else does — every buffer on
// its way into a sync.Pool is overwritten from end to end (its capacity,
// not its length) with Byte. A read through a reference that outlived the
// recycle, a recycle while another holder still needs the bytes, and a
// store that kept the slice it was handed to Put then all turn into wrong
// bytes in whatever compares or checksums them next: the ingest and
// restore twins, container CRCs, oss.Frozen. A buffer that comes back
// still poison from end to end was not taken out in between: that second
// Put panics. The cmd/ and benchmark/ binaries pay one branch.
package poison

import (
	"flag"
	"sync"
)

// Byte is what a recycled buffer holds.
const Byte = 0xDB

// On reports whether recycling poisons: in a binary `go test` built, the
// one kind that has registered package testing's flags by the time
// anything is recycled (testing.Init runs before TestMain). It asks the
// flag set and not testing.Testing() so that the product does not link
// package testing: in benchmark/ that import alone moved math/rand.read,
// the workload generator's inner loop, to a placement 40 % slower, and
// setup_s rose 18–21 % on all four workloads.
var On = sync.OnceValue(func() bool { return flag.Lookup("test.v") != nil })

// Put poisons b, a buffer about to enter a pool.
func Put(b []byte) {
	b = b[:cap(b)]
	if !On() || len(b) == 0 {
		return
	}
	if Filled(b) {
		panic("poison: buffer returned to its pool twice")
	}
	b[0] = Byte
	for n := 1; n < len(b); n *= 2 {
		copy(b[n:], b[:n])
	}
}

// Take clears the head of b, a buffer that just left a pool, so that a
// buffer taken and put back untouched is told from one put back twice.
func Take(b []byte) {
	if On() {
		clear(b[:min(cap(b), 8)])
	}
}

// Filled reports whether b holds nothing but Byte: what a holder of a
// recycled buffer reads.
func Filled(b []byte) bool {
	for _, c := range b {
		if c != Byte {
			return false
		}
	}
	return true
}
