package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"slimstore/internal/oss"
)

// reqStore logs every request and can hold the requests of a class ("put
// wal", "get sst", "getrange sst", "delete wal", …) at the door until a
// given number of them are in flight together — the proof, without
// reading a clock, that the engine issued them as one wave and not as a
// chain. A wave that never forms is released after a timeout and reported
// through serial().
type reqStore struct {
	store oss.Store // inner seen through the recorder and the gates
	rec   oss.Recorder
	gates map[string]*oss.Barrier // by class
}

// class names a request: the operation and the key's namespace under the
// DB prefix ("wal", "sst" or "MANIFEST").
func class(op oss.Op) string {
	switch {
	case strings.Contains(op.Key, "/wal/"):
		return op.Kind.String() + " wal"
	case strings.Contains(op.Key, "/sst/"):
		return op.Kind.String() + " sst"
	}
	return op.Kind.String() + " " + op.Key[strings.LastIndex(op.Key, "/")+1:]
}

func newReqStore(inner oss.Store) *reqStore {
	s := &reqStore{gates: map[string]*oss.Barrier{}}
	layers := []oss.Layer{&s.rec}
	for _, c := range []string{"delete wal", "get sst", "get wal"} {
		s.gates[c] = &oss.Barrier{}
		layers = append(layers, s.gates[c])
	}
	s.store = oss.With(inner, layers...)
	return s
}

// expectWave holds the next requests of class c until want of them are in
// flight at once.
func (s *reqStore) expectWave(c string, want int) {
	s.gates[c].Expect(func(op oss.Op) bool { return class(op) == c }, want)
}

// take returns the requests logged since the last take, and their count
// by class as "class×n class×n …" (classes sorted).
func (s *reqStore) take() (string, []oss.Request) {
	log := s.rec.Take()
	counts := map[string]int{}
	for _, r := range log {
		counts[class(r.Op)]++
	}
	var classes []string
	for c, n := range counts {
		classes = append(classes, fmt.Sprintf("%s×%d", c, n))
	}
	sort.Strings(classes)
	return strings.Join(classes, " "), log
}

// serial reports the waves that never formed.
func (s *reqStore) serial() error {
	var errs []error
	for _, g := range s.gates {
		errs = append(errs, g.Err())
	}
	return errors.Join(errs...)
}

// tailReads counts, per table, the ranged reads that end at the object's
// last byte — openTable's, as against data-block reads.
func tailReads(t *testing.T, mem *oss.Mem, reqs []oss.Request) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, r := range reqs {
		if r.Kind != oss.KindGetRange {
			continue
		}
		size, err := mem.Head(r.Key)
		if err != nil {
			t.Fatal(err)
		}
		if r.Off+r.N == size {
			out[r.Key]++
		}
	}
	return out
}

// TestRequestBudget pins what the engine asks of the store, in requests
// and waves, for the G-node's commit pattern: rounds of one batch and one
// Sync on a memtable that never fills.
//
//   - a round between flushes is exactly one put (the WAL segment);
//   - every blockFetchWidth-th round — the live segments fill one Open
//     read wave — also flushes: put SST, put MANIFEST, then the covered
//     segments deleted in one wave;
//   - every L0Threshold-th flush also compacts before that manifest put:
//     one whole-object read per input, together, one more SST put, and
//     the inputs deleted in the same wave as the segments — never a
//     ranged read, because the inputs are not opened;
//   - a table this handle wrote is probed with data-block reads only;
//   - a cold handle opens each table it probes with exactly one tail read,
//     and with none after a Scan, which reads every table whole in a wave;
//   - a cold Open after blockFetchWidth−1 unclosed rounds lists the live
//     WAL segments and reads every one of them in one wave.
func TestRequestBudget(t *testing.T) {
	mem := oss.NewMem()
	rec := newReqStore(mem)
	db, err := Open(rec.store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.take()

	// L0Threshold flushes and three more, so that the cold probe at the end
	// finds one L1 table and three L0 tables to open.
	l0 := db.opts.L0Threshold
	const wave, perRound = blockFetchWidth, 64
	rounds := (l0 + 3) * wave
	rng := rand.New(rand.NewSource(7))
	var keys [][]byte
	tables := 0 // live, by the budget's own arithmetic
	for round := 1; round <= rounds; round++ {
		var b Batch
		for i := 0; i < perRound; i++ {
			k, v := make([]byte, 20), make([]byte, 8)
			rng.Read(k)
			rng.Read(v)
			b.Put(k, v)
			keys = append(keys, k)
		}
		want := "put wal×1"
		if round%wave == 0 {
			rec.expectWave("delete wal", 2)
			want = fmt.Sprintf("delete wal×%d put MANIFEST×1 put sst×1 put wal×1", wave)
			tables++
			if round%(wave*l0) == 0 {
				// Every L0 table plus the one L1 table earlier compactions left.
				rec.expectWave("get sst", 2)
				want = fmt.Sprintf("delete sst×%d delete wal×%d get sst×%d put MANIFEST×1 put sst×2 put wal×1",
					tables, wave, tables)
				tables = 1
			}
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, _ := rec.take(); got != want {
			t.Fatalf("round %d issued %q, want %q", round, got, want)
		}
	}
	st := db.Stats()
	if st.Syncs != int64(rounds) || st.Flushes != int64(rounds/wave) || st.Compactions != int64(rounds/wave/l0) || st.TablesLive != tables {
		t.Fatalf("stats after %d rounds: %+v", rounds, st)
	}

	// Every key is in a table this handle wrote (the last round flushed):
	// probing them reads data blocks and nothing else.
	probe := func(db *DB) map[string]int {
		t.Helper()
		_, found, err := db.GetMulti(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i := range found {
			if !found[i] {
				t.Fatalf("key %d lost", i)
			}
		}
		got, ranges := rec.take()
		if !strings.HasPrefix(got, "getrange sst×") {
			t.Fatalf("probe issued %q, want ranged table reads only", got)
		}
		return tailReads(t, mem, ranges)
	}
	if tails := probe(db); len(tails) != 0 {
		t.Fatalf("probing tables this handle wrote re-read their tails: %v", tails)
	}

	// Leave k segments live, one short of a flush, and open cold without a
	// Close — a crash, or a process that never closes: one manifest read,
	// one listing, the k segments in one wave, no table touched until a
	// probe needs it — and then one tail read per table.
	const k = wave - 1
	for i := 0; i < k; i++ {
		if err := db.Put([]byte(fmt.Sprintf("tail-%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	rec.take()
	rec.expectWave("get wal", k)
	cold, err := Open(rec.store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rec.take(); got != fmt.Sprintf("get MANIFEST×1 get wal×%d list wal×1", k) {
		t.Fatalf("cold open issued %q", got)
	}
	if st := cold.Stats(); st.WALReplayed != k || st.WALSegments != k {
		t.Fatalf("cold open stats: %+v", st)
	}
	tails := probe(cold)
	if len(tails) != tables {
		t.Fatalf("cold probe opened %d tables, manifest has %d", len(tails), tables)
	}
	for key, n := range tails {
		if n != 1 {
			t.Fatalf("cold open of %s took %d tail reads, want 1", key, n)
		}
	}

	// A cold handle that scans first — an audit does — reads every table
	// whole in one wave and probes them afterwards without opening any.
	scanned, err := Open(rec.store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.take()
	rec.expectWave("get sst", tables)
	if err := scanned.Scan(nil, nil, func(_, _ []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if got, _ := rec.take(); got != fmt.Sprintf("get sst×%d", tables) {
		t.Fatalf("scan issued %q", got)
	}
	if tails := probe(scanned); len(tails) != 0 {
		t.Fatalf("probing after a scan re-read table tails: %v", tails)
	}

	if err := rec.serial(); err != nil {
		t.Fatalf("requests that should overlap went one at a time: %v", err)
	}
}

// TestCloseRequestBudget pins what Close asks of the store and what it
// leaves the next Open:
//
//   - over a synced, non-empty memtable: put SST → put MANIFEST → the
//     covered segments deleted in one wave;
//   - with writes still buffered, their WAL segment put first;
//   - when the flush makes a compaction due, the compaction before the
//     MANIFEST put, as in an Apply- or Sync-triggered flush;
//   - over an empty memtable: no request;
//   - the Open after a clean Close: get MANIFEST and list WAL, no segment
//     read, nothing replayed.
func TestCloseRequestBudget(t *testing.T) {
	mem := oss.NewMem()
	rec := newReqStore(mem)
	var n int
	write := func(db *DB, sync bool) {
		t.Helper()
		var b Batch
		for i := 0; i < 70; i++ {
			b.Put([]byte(fmt.Sprintf("key-%06d", n)), []byte("v"))
			n++
		}
		if err := db.Apply(&b); err != nil {
			t.Fatal(err)
		}
		if sync {
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	open := func() *DB {
		t.Helper()
		db, err := Open(rec.store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	// closeAs closes db and checks the requests in arrival order. "get
	// sst*" matches a run of one or more table reads and "delete*" one of
	// deletes, whatever they delete.
	closeAs := func(db *DB, want ...string) {
		t.Helper()
		rec.take()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		_, log := rec.take()
		var got []string
		for _, r := range log {
			c := class(r.Op)
			switch {
			case r.Kind == oss.KindDelete:
				c = "delete*"
			case c == "get sst":
				c += "*"
			}
			if len(got) == 0 || got[len(got)-1] != c || !strings.HasSuffix(c, "*") {
				got = append(got, c)
			}
		}
		if strings.Join(got, ", ") != strings.Join(want, ", ") {
			t.Fatalf("Close issued %q, want %q", got, want)
		}
	}
	reopen := func() *DB {
		t.Helper()
		rec.take()
		db := open()
		if got, _ := rec.take(); got != "get MANIFEST×1 list wal×1" {
			t.Fatalf("open after a clean Close issued %q", got)
		}
		if st := db.Stats(); st.WALReplayed != 0 || st.WALSegments != 0 {
			t.Fatalf("open after a clean Close: %+v", st)
		}
		return db
	}

	const synced = 5
	db := open()
	for i := 0; i < synced; i++ {
		write(db, true)
	}
	rec.take()
	rec.expectWave("delete wal", synced)
	closeAs(db, "put sst", "put MANIFEST", "delete*")

	db = reopen()
	closeAs(db) // empty memtable

	db = reopen()
	write(db, true)
	write(db, false)
	rec.expectWave("delete wal", 2)
	closeAs(db, "put wal", "put sst", "put MANIFEST", "delete*")

	// Two tables so far: flush up to L0Threshold−1, and the Close's table
	// makes the compaction due.
	db = reopen()
	for i := 2; i < db.opts.L0Threshold-1; i++ {
		write(db, false)
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	write(db, true)
	rec.expectWave("get sst", db.opts.L0Threshold)
	closeAs(db, "put sst", "get sst*", "put sst", "put MANIFEST", "delete*")
	db = reopen()
	if st := db.Stats(); st.TablesLive != 1 || st.Entries != int64(n) {
		t.Fatalf("after the compacting Close: %+v, want 1 table of %d entries", st, n)
	}
	if err := rec.serial(); err != nil {
		t.Fatalf("requests that should overlap went one at a time: %v", err)
	}
}

// TestOpenTableShortTailGuess: keys much longer than the manifest's
// bounds make the index outgrow the tail guess; the footer says by how
// much and exactly one more read fetches it.
func TestOpenTableShortTailGuess(t *testing.T) {
	mem := oss.NewMem()
	db, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("m", 400)
	want := map[string]string{"a": "first", "z": "last"}
	for i := 0; i < 300; i++ {
		want[fmt.Sprintf("%s%04d", long, i)] = strings.Repeat("v", 100)
	}
	for k, v := range want {
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	rec := newReqStore(mem)
	cold, err := Open(rec.store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.take()
	r, err := cold.openTable(cold.man.Tables[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(r.index) < 4 {
		t.Fatalf("%d blocks; the index would fit any guess", len(r.index))
	}
	got, ranges := rec.take()
	if got != "getrange sst×2" || len(tailReads(t, mem, ranges)) != 1 {
		t.Fatalf("open issued %q (%v), want the guess and one exact tail read", got, ranges)
	}
	for k, v := range want {
		if got, ok, err := cold.Get([]byte(k)); err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%.8s…) = %q, %v, %v", k, got, ok, err)
		}
	}
}
