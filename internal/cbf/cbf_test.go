package cbf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"slimstore/internal/fingerprint"
)

func fpOf(seed int64) fingerprint.FP {
	var b [16]byte
	r := rand.New(rand.NewSource(seed))
	r.Read(b[:])
	return fingerprint.OfBytes(b[:])
}

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(1000, 0.01)
	var fps []fingerprint.FP
	for i := 0; i < 1000; i++ {
		fp := fpOf(int64(i))
		fps = append(fps, fp)
		b.Add(fp)
	}
	for i, fp := range fps {
		if !b.MayContain(fp) {
			t.Fatalf("false negative for item %d", i)
		}
	}
	if b.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", b.Len())
	}
}

func TestBloomFalsePositiveRate(t *testing.T) {
	b := NewBloom(10000, 0.01)
	for i := 0; i < 10000; i++ {
		b.Add(fpOf(int64(i)))
	}
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.MayContain(fpOf(int64(100000 + i))) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.03 {
		t.Fatalf("false positive rate %.4f, want <= 0.03", rate)
	}
}

func TestBloomReset(t *testing.T) {
	b := NewBloom(100, 0.01)
	fp := fpOf(1)
	b.Add(fp)
	b.Reset()
	if b.MayContain(fp) || b.Len() != 0 {
		t.Fatal("Reset did not clear the filter")
	}
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

func TestQuickBloomMembership(t *testing.T) {
	f := func(items [][]byte) bool {
		b := NewBloom(len(items)+1, 0.01)
		for _, it := range items {
			b.Add(fingerprint.OfBytes(it))
		}
		for _, it := range items {
			if !b.MayContain(fingerprint.OfBytes(it)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsClamp(t *testing.T) {
	b := NewBloom(0, 2.0) // degenerate inputs clamp to sane defaults
	b.Add(fpOf(1))
	if !b.MayContain(fpOf(1)) {
		t.Fatal("degenerate-params filter dropped an item")
	}
}

func BenchmarkBloomAdd(b *testing.B) {
	bl := NewBloom(1<<20, 0.01)
	fp := fpOf(1)
	for i := 0; i < b.N; i++ {
		bl.Add(fp)
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
