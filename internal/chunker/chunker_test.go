package chunker

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"slimstore/internal/simclock"
)

func randBytes(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func allCutters(t *testing.T, p Params) []Cutter {
	t.Helper()
	names := []string{"rabin", "gear", "fastcdc", "buzhash", "fixed"}
	out := make([]Cutter, 0, len(names))
	for _, n := range names {
		c, err := New(n, p)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		out = append(out, c)
	}
	return out
}

func TestNewUnknown(t *testing.T) {
	if _, err := New("bogus", DefaultParams()); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		p  Params
		ok bool
	}{
		{Params{Min: 1024, Avg: 4096, Max: 16384}, true},
		{Params{Min: 0, Avg: 4096, Max: 16384}, false},
		{Params{Min: 8192, Avg: 4096, Max: 16384}, false},
		{Params{Min: 1024, Avg: 4095, Max: 16384}, false},
		{Params{Min: 1024, Avg: 4096, Max: 2048}, false},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.p, err, c.ok)
		}
	}
}

func TestCoverageAndBounds(t *testing.T) {
	data := randBytes(1, 1<<20)
	p := DefaultParams()
	for _, c := range allCutters(t, p) {
		chunks := SplitAll(data, c)
		var total int
		for i, ch := range chunks {
			total += ch.Size()
			last := i == len(chunks)-1
			if !last && ch.Size() < p.Min {
				t.Errorf("%s: chunk %d size %d < min %d", c.Name(), i, ch.Size(), p.Min)
			}
			if ch.Size() > p.Max {
				t.Errorf("%s: chunk %d size %d > max %d", c.Name(), i, ch.Size(), p.Max)
			}
		}
		if total != len(data) {
			t.Errorf("%s: chunks cover %d bytes, want %d", c.Name(), total, len(data))
		}
		// Reassembly must reproduce the input exactly.
		var buf bytes.Buffer
		for _, ch := range chunks {
			buf.Write(ch.Data)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("%s: reassembled data differs from input", c.Name())
		}
	}
}

func TestAverageChunkSize(t *testing.T) {
	data := randBytes(2, 8<<20)
	p := DefaultParams()
	for _, c := range allCutters(t, p) {
		if c.Name() == "fixed" {
			continue
		}
		chunks := SplitAll(data, c)
		avg := float64(len(data)) / float64(len(chunks))
		// CDC averages land within a factor ~2 of the target on random data.
		if avg < float64(p.Avg)/2.5 || avg > float64(p.Avg)*2.5 {
			t.Errorf("%s: avg chunk size %.0f, want around %d", c.Name(), avg, p.Avg)
		}
	}
}

// TestContentDefined checks the key CDC property: inserting bytes near the
// start shifts offsets but the cut points resynchronise, so most chunks are
// identical between the two versions.
func TestContentDefined(t *testing.T) {
	data := randBytes(3, 4<<20)
	ins := randBytes(4, 137)
	mutated := append(append(append([]byte{}, data[:1000]...), ins...), data[1000:]...)

	for _, c := range allCutters(t, DefaultParams()) {
		if c.Name() == "fixed" {
			continue // fixed-size chunking is expected to fail this
		}
		a := SplitAll(data, c)
		b := SplitAll(mutated, c)
		setA := make(map[string]struct{}, len(a))
		for _, ch := range a {
			setA[string(ch.Data)] = struct{}{}
		}
		same := 0
		for _, ch := range b {
			if _, ok := setA[string(ch.Data)]; ok {
				same++
			}
		}
		frac := float64(same) / float64(len(b))
		if frac < 0.95 {
			t.Errorf("%s: only %.2f%% of chunks survive a 137-byte insertion", c.Name(), frac*100)
		}
	}
}

// TestFixedBoundaryShift documents why fixed-size chunking has a low dedup
// ratio: a small insertion destroys all downstream chunk identity.
func TestFixedBoundaryShift(t *testing.T) {
	data := randBytes(5, 1<<20)
	mutated := append([]byte{0xAB}, data...)
	c := NewFixed(DefaultParams())
	a := SplitAll(data, c)
	b := SplitAll(mutated, c)
	setA := make(map[string]struct{}, len(a))
	for _, ch := range a {
		setA[string(ch.Data)] = struct{}{}
	}
	same := 0
	for _, ch := range b {
		if _, ok := setA[string(ch.Data)]; ok {
			same++
		}
	}
	if same > len(b)/10 {
		t.Errorf("fixed chunking unexpectedly resistant to boundary shift: %d/%d chunks survived", same, len(b))
	}
}

// TestDeterminism: cutting is a pure function of content.
func TestDeterminism(t *testing.T) {
	data := randBytes(6, 2<<20)
	for _, c := range allCutters(t, DefaultParams()) {
		a := SplitAll(data, c)
		b := SplitAll(data, c)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic chunk count %d vs %d", c.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i].Offset != b[i].Offset || a[i].Size() != b[i].Size() {
				t.Fatalf("%s: chunk %d differs between runs", c.Name(), i)
			}
		}
	}
}

// TestCutLocality: a cut decision depends only on a bounded suffix of the
// data before the cut point, which is what makes skip chunking sound — if
// the bytes of a skipped chunk are identical to the historical chunk, the
// next CDC cut from the skip target matches the historical cut.
func TestCutLocality(t *testing.T) {
	suffix := randBytes(7, 256<<10)
	prefixA := randBytes(8, 64<<10)
	prefixB := randBytes(9, 32<<10)
	for _, c := range allCutters(t, DefaultParams()) {
		if c.Name() == "fixed" {
			continue
		}
		a := c.Cut(suffix)
		// Cut from the same position within two different files.
		dataA := append(append([]byte{}, prefixA...), suffix...)
		dataB := append(append([]byte{}, prefixB...), suffix...)
		cutA := c.Cut(dataA[len(prefixA):])
		cutB := c.Cut(dataB[len(prefixB):])
		if cutA != a || cutB != a {
			t.Errorf("%s: cut depends on data before the start: %d/%d vs %d", c.Name(), cutA, cutB, a)
		}
	}
}

func TestStreamSkipCut(t *testing.T) {
	data := randBytes(10, 1<<20)
	acct := simclock.NewAccount()
	s := NewStream(data, NewFastCDC(DefaultParams()), acct, simclock.DefaultCosts())

	ch, ok := s.SkipCut(5000)
	if !ok || ch.Size() != 5000 || ch.Offset != 0 {
		t.Fatalf("SkipCut(5000) = %+v, %v", ch, ok)
	}
	if s.Pos() != 5000 {
		t.Fatalf("Pos() = %d, want 5000", s.Pos())
	}
	// Failed skip: rewind restores the position.
	s.Rewind(ch.Offset)
	if s.Pos() != 0 {
		t.Fatalf("Rewind failed: pos=%d", s.Pos())
	}
	// Skip past the end fails without consuming.
	if _, ok := s.SkipCut(len(data) + 1); ok {
		t.Fatal("SkipCut past EOF should fail")
	}
	// Interleave CDC cuts and skips; total coverage must be exact.
	var total int
	for !s.Done() {
		if total%3 == 0 && s.Remaining() > 4096 {
			c, ok := s.SkipCut(4096)
			if !ok {
				t.Fatal("SkipCut failed mid-stream")
			}
			total += c.Size()
			continue
		}
		c, ok := s.Next()
		if !ok {
			break
		}
		total += c.Size()
	}
	if total != len(data) {
		t.Fatalf("consumed %d bytes, want %d", total, len(data))
	}
}

func TestStreamAccounting(t *testing.T) {
	data := randBytes(11, 1<<20)
	costs := simclock.DefaultCosts()
	acct := simclock.NewAccount()
	s := NewStream(data, NewRabin(DefaultParams()), acct, costs)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	want := float64(len(data)) * costs.RabinPerByte
	got := float64(acct.CPUPhase(simclock.PhaseChunking))
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("chunking CPU charged %v, want ~%v ns", got, want)
	}
}

// Property: for any data, chunks from any cutter tile the input exactly.
func TestQuickCoverage(t *testing.T) {
	p := Params{Min: 64, Avg: 256, Max: 1024}
	cutters := allCutters(t, p)
	f := func(data []byte) bool {
		if len(data) == 0 {
			return true
		}
		for _, c := range cutters {
			var off int64
			for _, ch := range SplitAll(data, c) {
				if ch.Offset != off || ch.Size() == 0 {
					return false
				}
				off += int64(ch.Size())
			}
			if off != int64(len(data)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParamsForAvg(t *testing.T) {
	p := ParamsForAvg(1 << 20)
	if p.Min != 1<<18 || p.Avg != 1<<20 || p.Max != 1<<22 {
		t.Fatalf("ParamsForAvg(1MiB) = %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p := ParamsForAvg(1); p.Avg < 64 {
		t.Fatalf("tiny avg not clamped: %+v", p)
	}
}

func BenchmarkCutters(b *testing.B) {
	data := randBytes(12, 8<<20)
	for _, name := range []string{"rabin", "gear", "fastcdc", "buzhash", "fixed"} {
		c, err := New(name, DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				SplitAll(data, c)
			}
		})
	}
}
