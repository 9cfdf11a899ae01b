package cbf

import (
	"math/rand"
	"testing"

	"slimstore/internal/fingerprint"
)

func fpOf(seed int64) fingerprint.FP {
	var b [16]byte
	r := rand.New(rand.NewSource(seed))
	r.Read(b[:])
	return fingerprint.OfBytes(b[:])
}

func TestCountingAddRemove(t *testing.T) {
	c := NewCounting(1000, 0.001)
	fp := fpOf(42)
	for i := 0; i < 5; i++ {
		c.Add(fp)
	}
	if got := c.Count(fp); got < 5 {
		t.Fatalf("Count = %d, want >= 5", got)
	}
	for i := 0; i < 5; i++ {
		c.Remove(fp)
	}
	if c.MayContain(fp) {
		// Possible only through collision with another entry; with an empty
		// filter it must be exact.
		t.Fatal("fingerprint still present after matched removes in empty filter")
	}
}

func TestCountingReferenceTracking(t *testing.T) {
	// The FV-cache usage pattern: add each chunk once per future reference,
	// decrement as chunks are restored, evict when the count hits zero.
	c := NewCounting(5000, 0.001)
	refs := make(map[fingerprint.FP]int)
	r := rand.New(rand.NewSource(7))
	var fps []fingerprint.FP
	for i := 0; i < 500; i++ {
		fp := fpOf(int64(i))
		n := 1 + r.Intn(4)
		refs[fp] = n
		fps = append(fps, fp)
		for j := 0; j < n; j++ {
			c.Add(fp)
		}
	}
	for _, fp := range fps {
		for refs[fp] > 0 {
			if !c.MayContain(fp) {
				t.Fatalf("chunk with %d remaining refs reported absent", refs[fp])
			}
			c.Remove(fp)
			refs[fp]--
		}
	}
	for _, fp := range fps {
		if c.Count(fp) > 0 {
			// Tolerate collisions at a low rate.
			t.Logf("residual count for %s (collision)", fp.Short())
		}
	}
	if c.Len() != 0 {
		t.Fatalf("net length %d, want 0", c.Len())
	}
}

func TestParamsClamp(t *testing.T) {
	c := NewCounting(0, 2.0) // degenerate inputs clamp to sane defaults
	c.Add(fpOf(1))
	if !c.MayContain(fpOf(1)) {
		t.Fatal("degenerate-params filter dropped an item")
	}
}

func BenchmarkCountingCount(b *testing.B) {
	c := NewCounting(1<<20, 0.01)
	fp := fpOf(1)
	c.Add(fp)
	for i := 0; i < b.N; i++ {
		c.Count(fp)
	}
}
