package kvstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"slimstore/internal/oss"
)

// The decoders recovery leans on — WAL segments at Open, a table's tail
// and blocks at the first probe, the manifest before either — read bytes
// that came back from the store. These targets feed them hostile bytes
// next to seeds taken from a real synced segment and a real flushed table.

// fuzzSeedStore builds a small store the way the engine does: a flushed
// table, a manifest naming it, and one synced WAL segment on top.
func fuzzSeedStore(t testing.TB) (mem *oss.Mem, db *DB) {
	t.Helper()
	mem = oss.NewMem()
	db, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // small: the fuzzer minimises every interesting input byte by byte
		if err := db.Put([]byte(fmt.Sprintf("\xff\xfe-key-%03d", i)), []byte(strings.Repeat("v", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete([]byte("\xff\xfe-key-003")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Put([]byte("fp-0123456789abcdef"), []byte("C0000012"))
	b.Delete([]byte("fp-fedcba9876543210"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("single"), []byte("record")); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	return mem, db
}

func mustGet(t testing.TB, s oss.Store, key string) []byte {
	t.Helper()
	b, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seedBytes returns the []byte argument of a committed fuzz seed.
func seedBytes(t *testing.T, seed string) []byte {
	t.Helper()
	file, err := os.ReadFile("testdata/fuzz/" + seed)
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.Split(string(file), "\n")[1] // []byte("…"), after the version line
	b, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", seed, err)
	}
	return []byte(b)
}

// TestOnStoreFormatsUnchanged: the committed seeds are objects the engine
// wrote for the operations of fuzzSeedStore. Today's engine must write the
// WAL segment, the table and the manifest byte for byte as they were taken,
// so every build that opens a repository reads the others' objects. (The
// WAL segment was re-taken when a one-entry write became a batch record of
// one; seed-synced-segment, which ends in the single-entry record older
// builds wrote, stays a fuzz seed only: no repository this build opens can
// hold one. The table and the manifest that records its size were re-taken
// when the filter went from 10 to 16 bits per key; seed-10bit-table keeps
// the older table, which TestOpensTenBitTables reads.)
func TestOnStoreFormatsUnchanged(t *testing.T) {
	mem, db := fuzzSeedStore(t)
	for seed, key := range map[string]string{
		"FuzzWALSegment/seed-batch-segment": db.walKey(db.walSegs[0]),
		"FuzzSSTable/seed-flushed-table":    db.tableKey(db.man.Tables[0].Name),
		"FuzzManifest/seed-saved-manifest":  db.manifestKey(),
	} {
		if got, want := mustGet(t, mem, key), seedBytes(t, seed); string(got) != string(want) {
			t.Errorf("%s is no longer what the engine writes at %s:\n got  %q\n want %q", seed, key, got, want)
		}
	}
}

// TestOpensTenBitTables: seed-10bit-table is the table fuzzSeedStore
// wrote while the filter took 10 bits per key. Its filter block records
// its own bit and probe counts, so a repository written then still reads:
// a cold handle opens the table with one tail read (the guess, sized for
// today's filter, overshoots) and finds every key.
func TestOpensTenBitTables(t *testing.T) {
	_, seeded := fuzzSeedStore(t)
	old := seedBytes(t, "FuzzSSTable/seed-10bit-table")
	meta := seeded.man.Tables[0]
	meta.Size = int64(len(old))
	man, err := json.Marshal(&manifest{NextTable: 1, LastSeq: meta.MaxSeq, Tables: []tableMeta{meta}})
	if err != nil {
		t.Fatal(err)
	}
	mem := oss.NewMem()
	if err := mem.Put(seeded.tableKey(meta.Name), old); err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(seeded.manifestKey(), man); err != nil {
		t.Fatal(err)
	}
	rec := newReqStore(mem)
	db, err := Open(rec.store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec.take()
	for i := 0; i < 8; i++ {
		v, ok, err := db.Get([]byte(fmt.Sprintf("\xff\xfe-key-%03d", i)))
		if err != nil || ok != (i != 3) || ok && string(v) != strings.Repeat("v", i) {
			t.Fatalf("Get(key-%03d) = %q, %v, %v", i, v, ok, err)
		}
	}
	_, reqs := rec.take()
	if tails := tailReads(t, mem, reqs); tails[seeded.tableKey(meta.Name)] != 1 || len(tails) != 1 {
		t.Fatalf("opening the 10-bit table took tail reads %v, want one", tails)
	}
}

// FuzzWALSegment: decodeWALSegment never panics, allocates in proportion
// to its input (a hostile batch count cannot size a slice), rejects with
// errTruncated only what runs off the end, and on a segment that does
// decode, every cut of it yields a prefix of the same records — the torn
// tail Open tolerates on the final segment.
func FuzzWALSegment(f *testing.F) {
	mem, db := fuzzSeedStore(f)
	seg := mustGet(f, mem, db.walKey(db.walSegs[0]))
	f.Add(seg, uint16(0))
	f.Add(seg, uint16(len(seg)-1))
	f.Add(seg, uint16(20))
	f.Add([]byte{}, uint16(0))
	huge := append([]byte{}, seg[:17]...) // a batch header claiming 2^32-1 entries
	copy(huge[13:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(huge, uint16(0))
	flipped := append([]byte{}, seg...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped, uint16(3))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		var entries []entry
		var err error
		boundedAlloc(t, len(data), func() { entries, err = decodeWALSegment(data) })
		if err != nil {
			return // the prefix decoded so far came back; nothing more to hold it to
		}
		c := int(cut) % (len(data) + 1)
		prefix, perr := decodeWALSegment(data[:c])
		if perr != nil && !errors.Is(perr, errTruncated) {
			t.Fatalf("cut at %d of a valid segment: %v, want a truncation", c, perr)
		}
		if len(prefix) > len(entries) || len(prefix) > 0 && !reflect.DeepEqual(prefix, entries[:len(prefix)]) {
			t.Fatalf("cut at %d decodes %d records that are no prefix of the segment's %d", c, len(prefix), len(entries))
		}
	})
}

// boundedAlloc runs decode, which decodes n bytes, and fails t if it
// allocated more than in proportion to them: a hostile count or length must
// not size an allocation. TotalAlloc is the process's, and a fuzz worker has
// goroutines of its own: a decode over the limit is measured once more,
// since what somebody else allocated does not land in both windows.
func boundedAlloc(t *testing.T, n int, decode func()) {
	got, limit := uint64(math.MaxUint64), uint64(64*n+4096)
	for try := 0; try < 2 && got > limit; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", n, got, limit)
	}
}

// FuzzSSTable opens a hostile object as a table exactly as a cold handle
// would — tail guess from a fuzzed Count, footer, the second read when the
// guess was short, filter and index decode — then probes it and reads it
// whole as a compaction would. Nothing may panic or loop; a table the
// engine wrote must open, whatever Count claims, and serve its keys.
func FuzzSSTable(f *testing.F) {
	mem, db := fuzzSeedStore(f)
	meta := db.man.Tables[0]
	obj := mustGet(f, mem, db.tableKey(meta.Name))
	f.Add(obj, uint32(meta.Count)) // the manifest's own guess
	f.Add(obj, uint32(0))          // guess short: the second read
	f.Add(obj, uint32(1<<24-1))    // guess past the object: clipped
	f.Add(obj[:len(obj)-1], uint32(meta.Count))
	f.Add(obj[len(obj)-footerSize:], uint32(0))
	for _, field := range []int{0, 8, 16, 24} { // each footer offset pushed outside the object
		bad := append([]byte{}, obj...)
		bad[len(bad)-footerSize+field+7] = 0x7F
		f.Add(bad, uint32(meta.Count))
	}
	noBits := append([]byte{}, obj...) // a filter of zero bits: probes would divide by it
	filterOff, _, err := parseFooter(obj, int64(len(obj)))
	if err != nil {
		f.Fatal(err)
	}
	copy(noBits[filterOff:], []byte{0, 0, 0, 0})
	f.Add(noBits, uint32(meta.Count))

	f.Fuzz(func(t *testing.T, data []byte, count uint32) {
		store := oss.NewMem()
		db, err := Open(store, Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := tableMeta{Name: "fuzz.sst", Size: int64(len(data)), Count: int(count % (1 << 24)),
			Smallest: meta.Smallest, Largest: meta.Largest}
		if err := store.Put(db.tableKey(m.Name), data); err != nil {
			t.Fatal(err)
		}
		r, err := db.openTable(m)
		if err == nil {
			db.readers[m.Name] = r // the probes below use this reader
		}
		if string(data) == string(obj) {
			if err != nil {
				t.Fatalf("a table the engine wrote does not open with Count %d: %v", m.Count, err)
			}
			if _, ok, err := tableGet(db, m, meta.Smallest); err != nil || !ok {
				t.Fatalf("get(smallest) = %v, %v", ok, err)
			}
		}
		if err == nil {
			for _, k := range [][]byte{meta.Smallest, meta.Largest, []byte("absent")} {
				_, _, _ = tableGet(db, m, k) // errors are fine; panics are not
			}
		}
		_, _ = db.readTablesLocked([]tableMeta{m})
	})
}

// FuzzManifest: the manifest is JSON, its key bounds raw bytes. Whatever
// bounds and counters a table has, Open reads back exactly the manifest
// that was saved; any truncation of it fails Open with an error that names
// the manifest; and arbitrary bytes in its place never panic Open.
func FuzzManifest(f *testing.F) {
	mem, db := fuzzSeedStore(f)
	real := mustGet(f, mem, db.manifestKey())
	f.Add(real, []byte("\xff\xfe-key-000"), []byte("\xff\xfe-key-007"), uint64(1), uint64(8), uint16(17))
	f.Add([]byte(`{"next_table":1,"tables":[{"name":"x","size":-5,"count":-1}]}`), []byte{}, []byte{0}, uint64(0), uint64(0), uint16(0))
	f.Add([]byte(`[]`), []byte("a"), []byte("\x80\x81"), ^uint64(0), ^uint64(0), uint16(999))

	f.Fuzz(func(t *testing.T, raw, smallest, largest []byte, next, seq uint64, cut uint16) {
		open := func(manifestBytes []byte) (*DB, error) {
			store := oss.NewMem()
			if err := store.Put(db.manifestKey(), manifestBytes); err != nil {
				t.Fatal(err)
			}
			return Open(store, Options{})
		}

		if got, err := open(raw); err != nil {
			if !strings.Contains(err.Error(), "manifest") {
				t.Fatalf("Open over a hostile manifest failed without naming it: %v", err)
			}
		} else {
			_, _, _ = got.Get([]byte("k")) // tables it names do not exist: an error, not a panic
		}

		want := manifest{NextTable: next, LastSeq: seq, Tables: []tableMeta{{
			Name: "00000001.sst", Level: 1, Size: int64(len(raw)), Count: len(smallest),
			Smallest: smallest, Largest: largest, MaxSeq: seq,
		}}}
		enc, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := open(enc)
		if err != nil {
			t.Fatalf("Open over a saved manifest: %v", err)
		}
		// JSON turns empty bounds into nil ones; the engine never compares them by nil-ness.
		g, w := got.man.Tables[0], want.Tables[0]
		if string(g.Smallest) != string(w.Smallest) || string(g.Largest) != string(w.Largest) {
			t.Fatalf("key bounds changed across the manifest: %x..%x, saved %x..%x", g.Smallest, g.Largest, w.Smallest, w.Largest)
		}
		g.Smallest, g.Largest, w.Smallest, w.Largest = nil, nil, nil, nil
		if got.man.NextTable != next || got.man.LastSeq != seq || !reflect.DeepEqual(g, w) {
			t.Fatalf("manifest changed across save and Open:\n got  %+v\n want %+v", got.man, want)
		}

		if _, err := open(enc[:int(cut)%len(enc)]); err == nil || !strings.Contains(err.Error(), "manifest") {
			t.Fatalf("Open over a manifest cut at %d of %d: %v, want an error naming the manifest", int(cut)%len(enc), len(enc), err)
		}
	})
}
