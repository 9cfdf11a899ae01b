package simindex

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

func fpsOf(ids ...int) []fingerprint.FP {
	out := make([]fingerprint.FP, 0, len(ids))
	for _, id := range ids {
		out = append(out, fingerprint.OfBytes([]byte(fmt.Sprintf("fp-%d", id))))
	}
	return out
}

func seqFPs(start, n int) []fingerprint.FP {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = start + i
	}
	return fpsOf(ids...)
}

func TestSketchOf(t *testing.T) {
	fps := seqFPs(0, 100)
	sk := SketchOf(fps, 16)
	if len(sk) != 16 {
		t.Fatalf("sketch size %d, want 16", len(sk))
	}
	for i := 1; i < len(sk); i++ {
		if sk[i] <= sk[i-1] {
			t.Fatal("sketch not strictly ascending")
		}
	}
	// Duplicates collapse.
	dup := append(append([]fingerprint.FP{}, fps[:4]...), fps[:4]...)
	if got := SketchOf(dup, 16); len(got) != 4 {
		t.Fatalf("sketch of duplicated set has %d entries, want 4", len(got))
	}
	// k defaulting.
	if got := SketchOf(fps, 0); len(got) != DefaultSketchSize {
		t.Fatalf("default k produced %d entries", len(got))
	}
}

func TestResemblance(t *testing.T) {
	a := SketchOf(seqFPs(0, 200), 32)
	if r := Resemblance(a, a); r != 1 {
		t.Fatalf("self resemblance = %f", r)
	}
	b := SketchOf(seqFPs(5000, 200), 32)
	if r := Resemblance(a, b); r > 0.1 {
		t.Fatalf("disjoint resemblance = %f", r)
	}
	// 90% shared content resembles more than 10% shared content.
	hi := SketchOf(append(seqFPs(0, 180), seqFPs(9000, 20)...), 32)
	lo := SketchOf(append(seqFPs(0, 20), seqFPs(9000, 180)...), 32)
	if Resemblance(a, hi) <= Resemblance(a, lo) {
		t.Fatalf("resemblance ordering wrong: hi=%f lo=%f", Resemblance(a, hi), Resemblance(a, lo))
	}
	if Resemblance(nil, a) != 0 || Resemblance(a, nil) != 0 {
		t.Fatal("empty sketch resemblance should be 0")
	}
}

func TestIndexQuery(t *testing.T) {
	mem := oss.NewMem()
	idx, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	// Three files with different content regions.
	if err := idx.Put("f1", 0, SketchOf(seqFPs(0, 300), 32)); err != nil {
		t.Fatal(err)
	}
	if err := idx.Put("f1", 1, SketchOf(seqFPs(10, 300), 32)); err != nil {
		t.Fatal(err)
	}
	if err := idx.Put("f2", 0, SketchOf(seqFPs(10000, 300), 32)); err != nil {
		t.Fatal(err)
	}

	// A stream overlapping f1's newer version strongly.
	q := SketchOf(seqFPs(15, 300), 32)
	m, ok, err := idx.Query(q, 0.05)
	if !ok || err != nil {
		t.Fatalf("no match found (%v)", err)
	}
	if m.FileID != "f1" || m.Version != 1 {
		t.Fatalf("Query = %+v, want f1 v1", m)
	}

	// A stream unlike anything indexed.
	if m, ok, _ := idx.Query(SketchOf(seqFPs(500000, 300), 32), 0.05); ok {
		t.Fatalf("unexpected match %+v", m)
	}

	stored, err := idx.Stored()
	if err != nil || len(stored) != 3 {
		t.Fatalf("Stored = %+v, %v", stored, err)
	}
}

func TestIndexPersistence(t *testing.T) {
	mem := oss.NewMem()
	idx, _ := Open(mem)
	sk := SketchOf(seqFPs(0, 100), 16)
	if err := idx.Put("file with spaces/and-slash", 7, sk); err != nil {
		t.Fatal(err)
	}

	// A fresh index (new L-node) sees the entry.
	idx2, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, _ := idx2.Query(sk, 0.5)
	if !ok || m.FileID != "file with spaces/and-slash" || m.Version != 7 {
		t.Fatalf("reloaded Query = %+v, %v", m, ok)
	}

	// Remove persists too.
	if err := idx2.Remove(m.FileID, m.Version); err != nil {
		t.Fatal(err)
	}
	idx3, _ := Open(mem)
	if m, ok, err := idx3.Query(sk, 0.5); ok || err != nil {
		t.Fatalf("reloaded Query after remove = %+v, %v, %v", m, ok, err)
	}
}

func TestQueryDeterministicTieBreak(t *testing.T) {
	mem := oss.NewMem()
	idx, _ := Open(mem)
	sk := SketchOf(seqFPs(0, 100), 16)
	idx.Put("b", 0, sk)
	idx.Put("a", 0, sk)
	idx.Put("a", 1, sk)
	m, ok, _ := idx.Query(sk, 0.5)
	if !ok || m.FileID != "a" || m.Version != 1 {
		t.Fatalf("tie break = %+v", m)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	e := &Entry{FileID: "x/y", Version: 3, Sketch: Sketch{1, 2, 3, 1 << 60}}
	got, err := decodeEntry(encodeEntry(e))
	if err != nil {
		t.Fatal(err)
	}
	if got.FileID != e.FileID || got.Version != e.Version || len(got.Sketch) != 4 || got.Sketch[3] != 1<<60 {
		t.Fatalf("round trip = %+v", got)
	}
	if _, err := decodeEntry([]byte{1}); err == nil {
		t.Fatal("short entry accepted")
	}
}

func isKind(k oss.Kind) func(oss.Op) bool { return func(op oss.Op) bool { return op.Kind == k } }

// TestOpenAsksForNothing: a handle that never queries never lists or reads
// a sketch; Put and Remove before the first query touch only the store, and
// the first query then loads what the store holds — in one listing and one
// overlapped wave of reads — once.
func TestOpenAsksForNothing(t *testing.T) {
	mem := oss.NewMem()
	seed, _ := Open(mem)
	const n = 40
	for v := 0; v < n; v++ {
		if err := seed.Put("f", v, SketchOf(seqFPs(100*v, 50), 16)); err != nil {
			t.Fatal(err)
		}
	}

	// The load's first two sketch reads are held until they wait together.
	var rec oss.Recorder
	var bar oss.Barrier
	bar.Expect(isKind(oss.KindGet), 2)
	idx, err := Open(oss.With(mem, &rec, &bar))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Put("g", 0, SketchOf(seqFPs(9000, 50), 16)); err != nil {
		t.Fatal(err)
	}
	if err := idx.Remove("f", 0); err != nil {
		t.Fatal(err)
	}
	lists := func() int { return len(rec.Requests(isKind(oss.KindList))) }
	gets := func() int { return len(rec.Requests(isKind(oss.KindGet))) }
	if lists() != 0 || gets() != 0 {
		t.Fatalf("open + put + remove issued %d lists and %d gets, want none", lists(), gets())
	}
	for q := 0; q < 3; q++ {
		m, ok, err := idx.Query(SketchOf(seqFPs(9000, 50), 16), 0.5)
		if err != nil || !ok || m.FileID != "g" {
			t.Fatalf("query %d after a pre-load put: %+v, %v, %v", q, m, ok, err)
		}
	}
	if m, ok, err := idx.Query(SketchOf(seqFPs(0, 50), 16), 0.5); ok || err != nil {
		t.Fatalf("the version removed before the load is indexed: %+v, %v, %v", m, ok, err)
	}
	if m, ok, err := idx.Query(SketchOf(seqFPs(100*(n-1), 50), 16), 0.5); err != nil || !ok || m.FileID != "f" || m.Version != n-1 {
		t.Fatalf("query for the last version stored before the load: %+v, %v, %v", m, ok, err)
	}
	if lists() != 1 || gets() != n { // n - 1 stored before the open + 1 put
		t.Fatalf("five queries issued %d lists and %d gets, want 1 and %d", lists(), gets(), n)
	}
	if err := bar.Err(); err != nil {
		t.Fatalf("the load is not a wave: %v", err)
	}
	if _, high := rec.InFlight(isKind(oss.KindGet)); high < 2 || high > loadWidth {
		t.Fatalf("the load had %d reads in flight at most, want a wave of up to %d", high, loadWidth)
	}
}

// TestLoadFailureIsReportedAndRetried: a failed load is the query's error,
// not an empty index, and the next query loads again.
func TestLoadFailureIsReportedAndRetried(t *testing.T) {
	mem := oss.NewMem()
	seed, _ := Open(mem)
	sk := SketchOf(seqFPs(0, 50), 16)
	if err := seed.Put("f", 0, sk); err != nil {
		t.Fatal(err)
	}
	faulty := oss.NewFaulty(mem)
	faulty.FailGet(entryKey("f", 0))
	idx, _ := Open(faulty)
	if _, _, err := idx.Query(sk, 0.5); err == nil {
		t.Fatal("a query over an unreadable index reported no error")
	}
	if _, _, err := idx.Query(sk, 0.5); err == nil {
		t.Fatal("a second query over an unreadable index reported no error")
	}
	faulty.Clear()
	if m, ok, err := idx.Query(sk, 0.5); err != nil || !ok || m.FileID != "f" {
		t.Fatalf("query after the store healed: %+v, %v, %v", m, ok, err)
	}
}

// TestRemoveDuringLoad: a sketch deleted between the load's listing and its
// read is skipped, not an error, and stays out of the mirror.
func TestRemoveDuringLoad(t *testing.T) {
	mem := oss.NewMem()
	seed, _ := Open(mem)
	for v := 0; v < 4; v++ {
		if err := seed.Put("f", v, SketchOf(seqFPs(100*v, 50), 16)); err != nil {
			t.Fatal(err)
		}
	}
	// Inside the first read, before any other read of the wave proceeds.
	var once sync.Once
	idx, _ := Open(oss.With(mem, oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind == oss.KindGet {
			once.Do(func() {
				for v := 0; v < 4; v++ {
					if err := mem.Delete(entryKey("f", v)); err != nil {
						t.Error(err)
					}
				}
			})
		}
		return oss.Do(next, op)
	})))
	for v := 0; v < 4; v++ {
		if m, ok, err := idx.Query(SketchOf(seqFPs(100*v, 50), 16), 0.5); ok || err != nil {
			t.Fatalf("query for v%d after every listed sketch vanished: %+v, %v, %v; want no match and no error", v, m, ok, err)
		}
	}
}

// TestLatest: Latest answers from the loaded mirror alone — nothing before
// the load, whatever the store holds — tracks Put and Remove after it, and
// never issues a request.
func TestLatest(t *testing.T) {
	mem := oss.NewMem()
	seed, _ := Open(mem)
	for v := 0; v < 3; v++ {
		if err := seed.Put("f", v, SketchOf(seqFPs(100*v, 50), 16)); err != nil {
			t.Fatal(err)
		}
	}
	var rec oss.Recorder
	idx, _ := Open(oss.With(mem, &rec))
	latest := func(fileID string) (int, bool) {
		before := len(rec.Requests(nil))
		v, known := idx.Latest(fileID)
		if n := len(rec.Requests(nil)) - before; n != 0 {
			t.Fatalf("Latest(%q) issued %d requests", fileID, n)
		}
		return v, known
	}
	if err := idx.Put("f", 3, SketchOf(seqFPs(300, 50), 16)); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2; q++ {
		if v, known := latest("f"); known {
			t.Fatalf("before the load: Latest = %d, true; want unknown", v)
		}
	}
	if _, _, err := idx.Query(nil, 1); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		op    func() error
		file  string
		want  int
		known bool
	}{
		{nil, "f", 3, true},
		{nil, "g", -1, false},
		{func() error { return idx.Put("f", 7, SketchOf(seqFPs(700, 50), 16)) }, "f", 7, true},
		{func() error { return idx.Put("f", 5, SketchOf(seqFPs(500, 50), 16)) }, "f", 7, true},
		{func() error { return idx.Remove("f", 7) }, "f", 5, true},
		{func() error { return idx.Remove("f", 4) }, "f", 5, true},
		{func() error { return idx.Put("g", 0, SketchOf(seqFPs(900, 50), 16)) }, "g", 0, true},
		{func() error { return idx.Remove("g", 0) }, "g", -1, false},
	} {
		if step.op != nil {
			if err := step.op(); err != nil {
				t.Fatal(err)
			}
		}
		if v, known := latest(step.file); v != step.want || known != step.known {
			t.Fatalf("Latest(%q) = %d, %v; want %d, %v", step.file, v, known, step.want, step.known)
		}
	}
	for _, v := range []int{5, 3, 2, 1, 0} {
		if err := idx.Remove("f", v); err != nil {
			t.Fatal(err)
		}
	}
	if v, known := latest("f"); known {
		t.Fatalf("every version removed: Latest = %d, true", v)
	}
}

// TestQueryMatchesFlatScan: the mirror keyed by file answers every query
// as a scan of one flat list of versions does, ties included: the newest
// version of the lexicographically smallest file.
func TestQueryMatchesFlatScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	idx, _ := Open(oss.NewMem())
	if _, _, err := idx.Query(nil, 1); err != nil {
		t.Fatal(err)
	}
	// Sketches over a small pool of regions, so many scores tie exactly.
	region := func() Sketch { return SketchOf(seqFPs(40*r.Intn(6), 40+r.Intn(3)*20), 16) }
	flat := map[string]Entry{}
	for i := 0; i < 300; i++ {
		file, v := fmt.Sprintf("f%d", r.Intn(8)), r.Intn(12)
		key := fmt.Sprintf("%s/%d", file, v)
		if r.Intn(4) == 0 {
			if err := idx.Remove(file, v); err != nil {
				t.Fatal(err)
			}
			delete(flat, key)
			continue
		}
		sk := region()
		if err := idx.Put(file, v, sk); err != nil {
			t.Fatal(err)
		}
		flat[key] = Entry{FileID: file, Version: v, Sketch: sk}
	}
	for q := 0; q < 200; q++ {
		sk, minScore := region(), []float64{0, 0.3, 0.6, 1}[r.Intn(4)]
		want := Match{Score: -1}
		for _, e := range flat {
			s := Resemblance(sk, e.Sketch)
			if s >= minScore && (s > want.Score || s == want.Score && (e.FileID < want.FileID ||
				e.FileID == want.FileID && e.Version > want.Version)) {
				want = Match{FileID: e.FileID, Version: e.Version, Score: s}
			}
		}
		got, ok, err := idx.Query(sk, minScore)
		if err != nil || ok != (want.Score >= 0) || ok && got != want {
			t.Fatalf("query %d: got %+v, %v, %v; want %+v", q, got, ok, err, want)
		}
	}
}
