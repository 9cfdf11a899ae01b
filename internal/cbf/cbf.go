// Package cbf provides a counting Bloom filter.
//
// SLIMSTORE uses one per restoring file to track how many times each chunk
// will still be referenced (the full-vision restore cache, paper §V-A).
// The global index has no filter of its own: its lookups go through the
// per-table key filters of internal/kvstore.
package cbf

import (
	"math"

	"slimstore/internal/fingerprint"
)

// hashPair derives the two base hashes of the Kirsch-Mitzenmacher
// double-hashing construction; slot i is (h1 + i*h2) mod m. Callers
// compute slots inline rather than through a scratch slice so that the
// read-only probes (MayContain, Count) stay safe between concurrent readers.
func hashPair(fp fingerprint.FP) (h1, h2 uint64) {
	h1 = fp.Uint64()
	// Second independent hash from the trailing bytes.
	for i := 8; i < fingerprint.Size; i++ {
		h2 = h2*131 + uint64(fp[i])
	}
	h2 |= 1 // must be odd so all slots are reachable
	return h1, h2
}

// params picks the optimal bit count and hash count for n items at the
// given false-positive rate.
func params(n int, fpRate float64) (m, k int) {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	mm := -float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)
	kk := mm / float64(n) * math.Ln2
	m = int(math.Ceil(mm))
	if m < 64 {
		m = 64
	}
	k = int(math.Round(kk))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return m, k
}

// Counting is a counting Bloom filter: Add increments k counters, Remove
// decrements them, and Count lower-bounds by the minimum counter. Counters
// are 16-bit and saturate rather than overflow. Count/MayContain are
// read-only and safe to share between concurrent readers.
type Counting struct {
	counters []uint16
	m, k     int
	n        int
}

// NewCounting sizes a counting filter for n expected items at the given
// false-positive rate.
func NewCounting(n int, fpRate float64) *Counting {
	m, k := params(n, fpRate)
	return &Counting{counters: make([]uint16, m), m: m, k: k}
}

// Add increments the counters for fp. Multiple Adds of the same fingerprint
// accumulate, recording reference counts.
func (c *Counting) Add(fp fingerprint.FP) {
	h1, h2 := hashPair(fp)
	for i := 0; i < c.k; i++ {
		s := (h1 + uint64(i)*h2) % uint64(c.m)
		if c.counters[s] != math.MaxUint16 {
			c.counters[s]++
		}
	}
	c.n++
}

// Remove decrements the counters for fp. Removing a fingerprint that was
// never added can corrupt other entries, as with any counting Bloom filter;
// callers must pair Add/Remove.
func (c *Counting) Remove(fp fingerprint.FP) {
	h1, h2 := hashPair(fp)
	for i := 0; i < c.k; i++ {
		s := (h1 + uint64(i)*h2) % uint64(c.m)
		if c.counters[s] > 0 && c.counters[s] != math.MaxUint16 {
			c.counters[s]--
		}
	}
	if c.n > 0 {
		c.n--
	}
}

// Count returns an upper bound on how many times fp is currently present
// (the minimum of its counters). Zero means definitely absent.
func (c *Counting) Count(fp fingerprint.FP) int {
	min := math.MaxUint16 + 1
	h1, h2 := hashPair(fp)
	for i := 0; i < c.k; i++ {
		s := (h1 + uint64(i)*h2) % uint64(c.m)
		if int(c.counters[s]) < min {
			min = int(c.counters[s])
		}
	}
	return min
}

// MayContain reports whether fp may be present.
func (c *Counting) MayContain(fp fingerprint.FP) bool { return c.Count(fp) > 0 }

// Len returns the net number of items (Adds minus Removes).
func (c *Counting) Len() int { return c.n }

// Reset clears the filter.
func (c *Counting) Reset() {
	for i := range c.counters {
		c.counters[i] = 0
	}
	c.n = 0
}
