package chunker

import (
	"math/rand"
	"testing"

	"slimstore/internal/simclock"
)

var allAlgos = []string{"rabin", "gear", "fastcdc", "buzhash", "fixed"}

// TestStreamReset: a reset stream must produce exactly the cuts a fresh
// NewStream over the same buffer would, for every cutter — the property
// the ingest fast path relies on to recycle one Stream per version.
func TestStreamReset(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	bufA := make([]byte, 1<<20)
	bufB := make([]byte, 700<<10)
	r.Read(bufA)
	r.Read(bufB)

	for _, algo := range allAlgos {
		c, err := New(algo, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		cuts := func(s *Stream) []Chunk {
			var out []Chunk
			for {
				ch, ok := s.Next()
				if !ok {
					return out
				}
				out = append(out, ch)
			}
		}
		s := NewStream(bufA, c, nil, simclock.Costs{})
		first := cuts(s)

		// Reset onto a different buffer, then back: both must equal fresh runs.
		s.Reset(bufB)
		gotB := cuts(s)
		s.Reset(bufA)
		gotA := cuts(s)

		freshB := SplitAll(bufB, c)
		if len(gotB) != len(freshB) {
			t.Fatalf("%s: reset onto B: %d chunks, fresh %d", algo, len(gotB), len(freshB))
		}
		for i := range gotB {
			if gotB[i].Offset != freshB[i].Offset || gotB[i].Size() != freshB[i].Size() {
				t.Fatalf("%s: reset cut %d = (%d,%d), fresh = (%d,%d)",
					algo, i, gotB[i].Offset, gotB[i].Size(), freshB[i].Offset, freshB[i].Size())
			}
		}
		if len(gotA) != len(first) {
			t.Fatalf("%s: reset back onto A: %d chunks, first pass %d", algo, len(gotA), len(first))
		}
		for i := range gotA {
			if gotA[i].Offset != first[i].Offset || gotA[i].Size() != first[i].Size() {
				t.Fatalf("%s: reset-back cut %d diverges", algo, i)
			}
		}
	}
}

// TestStreamResetMidBuffer: resetting a partially-consumed stream restarts
// cleanly.
func TestStreamResetMidBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	buf := make([]byte, 256<<10)
	r.Read(buf)
	c, err := New("fastcdc", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(buf, c, nil, simclock.Costs{})
	for i := 0; i < 3; i++ { // consume a few chunks
		s.Next()
	}
	s.Reset(buf)
	want := SplitAll(buf, c)
	for i := range want {
		ch, ok := s.Next()
		if !ok || ch.Offset != want[i].Offset || ch.Size() != want[i].Size() {
			t.Fatalf("cut %d diverges after mid-buffer reset", i)
		}
	}
	if _, ok := s.Next(); ok {
		t.Fatal("stream not exhausted after reset replay")
	}
}

// TestCutAllocs: every cutter's Cut must be allocation-free — it runs
// once per chunk on the ingest hot path.
func TestCutAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	buf := make([]byte, 256<<10)
	r.Read(buf)
	for _, algo := range allAlgos {
		c, err := New(algo, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		allocs := testing.AllocsPerRun(200, func() {
			if pos >= len(buf) {
				pos = 0
			}
			pos += c.Cut(buf[pos:])
		})
		if allocs != 0 {
			t.Errorf("%s: Cut allocates %.1f/op, want 0", algo, allocs)
		}
	}
}

// TestStreamNextAllocs: the pooled hand-off budget assumes Stream.Next
// itself is allocation-free.
func TestStreamNextAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	buf := make([]byte, 1<<20)
	r.Read(buf)
	c, err := New("fastcdc", DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	acct := simclock.NewAccount()
	s := NewStream(buf, c, acct, simclock.DefaultCosts())
	allocs := testing.AllocsPerRun(200, func() {
		if s.Done() {
			s.Reset(buf)
		}
		s.Next()
	})
	if allocs != 0 {
		t.Errorf("Stream.Next allocates %.1f/op, want 0", allocs)
	}
}
