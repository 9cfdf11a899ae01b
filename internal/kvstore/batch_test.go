package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"slimstore/internal/oss"
)

func TestBatchEquivalentToSingles(t *testing.T) {
	single, _ := Open(oss.NewMem(), smallOpts())
	batched, _ := Open(oss.NewMem(), smallOpts())

	rng := rand.New(rand.NewSource(7))
	var b Batch
	for i := 0; i < 400; i++ {
		k := []byte(fmt.Sprintf("key%03d", rng.Intn(120)))
		if rng.Intn(5) == 0 {
			if err := single.Delete(k); err != nil {
				t.Fatal(err)
			}
			b.Delete(k)
		} else {
			v := []byte(fmt.Sprintf("val%d", i))
			if err := single.Put(k, v); err != nil {
				t.Fatal(err)
			}
			b.Put(k, v)
		}
		// Apply in uneven chunks so batches straddle flush boundaries.
		if b.Len() >= 37 {
			if err := batched.Apply(&b); err != nil {
				t.Fatal(err)
			}
			b.Reset()
		}
	}
	if err := batched.Apply(&b); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*DB{single, batched} {
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
	}

	want := map[string]string{}
	single.Scan(nil, nil, func(k, v []byte) bool { want[string(k)] = string(v); return true })
	got := map[string]string{}
	batched.Scan(nil, nil, func(k, v []byte) bool { got[string(k)] = string(v); return true })
	if len(got) != len(want) {
		t.Fatalf("batched holds %d keys, singles %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: batched %q, singles %q", k, got[k], v)
		}
	}

	ss, bs := single.Stats(), batched.Stats()
	if ss.Puts != bs.Puts || ss.Deletes != bs.Deletes {
		t.Fatalf("op counts diverge: singles %d/%d, batched %d/%d", ss.Puts, ss.Deletes, bs.Puts, bs.Deletes)
	}
}

func TestBatchInternalOrdering(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	var b Batch
	b.Put([]byte("k"), []byte("first"))
	b.Delete([]byte("k"))
	b.Put([]byte("k"), []byte("last"))
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("k"))
	if err != nil || !ok || string(v) != "last" {
		t.Fatalf("Get = %q, %v, %v; want last write of the batch", v, ok, err)
	}
	// The ordering must survive persistence too.
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = db.Get([]byte("k"))
	if !ok || string(v) != "last" {
		t.Fatalf("after compact Get = %q, %v", v, ok)
	}
}

func TestBatchRecoveryFromWAL(t *testing.T) {
	mem := oss.NewMem()
	db, _ := Open(mem, smallOpts())
	var b Batch
	for i := 0; i < 50; i++ {
		b.Put([]byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: reopen without Close or Flush — recovery replays the batch
	// record from the WAL.
	db2, err := Open(mem, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v, ok, err := db2.Get([]byte(fmt.Sprintf("k%02d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered Get(k%02d) = %q, %v, %v", i, v, ok, err)
		}
	}
	// Post-recovery sequence numbers must exceed the batch's.
	db2.Put([]byte("k00"), []byte("newest"))
	if v, _, _ := db2.Get([]byte("k00")); string(v) != "newest" {
		t.Fatalf("post-recovery overwrite lost: %q", v)
	}
}

// TestTornBatchIsAllOrNothing is the crash-recovery contract of Apply: a
// batch lives in one WAL record under one CRC, so a segment torn anywhere
// inside the batch replays none of it, while records before the tear
// survive.
func TestTornBatchIsAllOrNothing(t *testing.T) {
	mem := oss.NewMem()
	db, _ := Open(mem, smallOpts())
	// A durable single write first, then the batch, in one segment.
	if err := db.Put([]byte("before"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	var b Batch
	for i := 0; i < 20; i++ {
		b.Put([]byte(fmt.Sprintf("batch%02d", i)), bytes.Repeat([]byte{byte(i)}, 32))
	}
	if err := db.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	keys, _ := mem.List("kv/wal/")
	if len(keys) != 1 {
		t.Fatalf("wal segments = %v", keys)
	}
	seg, _ := mem.Get(keys[0])

	// Tear the segment at every point inside the batch record: recovery
	// must always keep "before" and never surface a partial batch.
	recLen := len(walEncodeSingle(t))
	for cut := recLen + 1; cut < len(seg); cut += 97 {
		mem.Put(keys[0], seg[:cut])
		re, err := Open(mem, smallOpts())
		if err != nil {
			t.Fatalf("cut at %d: recovery failed: %v", cut, err)
		}
		if _, ok, _ := re.Get([]byte("before")); !ok {
			t.Fatalf("cut at %d: record before the torn batch lost", cut)
		}
		n := 0
		for i := 0; i < 20; i++ {
			if _, ok, _ := re.Get([]byte(fmt.Sprintf("batch%02d", i))); ok {
				n++
			}
		}
		if n != 0 {
			t.Fatalf("cut at %d: torn batch partially replayed (%d of 20 keys)", cut, n)
		}
	}

	// The intact segment still replays everything.
	mem.Put(keys[0], seg)
	re, err := Open(mem, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, ok, _ := re.Get([]byte(fmt.Sprintf("batch%02d", i))); !ok {
			t.Fatalf("intact batch key batch%02d missing", i)
		}
	}
}

// walEncodeSingle encodes the "before" record (a Put: a batch of one) of
// the torn-batch test, so tears start strictly inside the batch record.
func walEncodeSingle(t *testing.T) []byte {
	t.Helper()
	return appendRecord(nil, walBatchKind, []entry{{key: []byte("before"), value: []byte("ok"), kind: kindPut}}, 1)
}

// A torn tail is only forgiven on the final segment; truncation of an
// earlier segment is corruption and must fail recovery.
func TestTruncatedNonFinalSegmentRejected(t *testing.T) {
	mem := oss.NewMem()
	db, _ := Open(mem, smallOpts())
	db.Put([]byte("a"), []byte("1"))
	db.Sync()
	db.Put([]byte("b"), []byte("2"))
	db.Sync()
	keys, _ := mem.List("kv/wal/")
	if len(keys) != 2 {
		t.Fatalf("wal segments = %v", keys)
	}
	seg, _ := mem.Get(keys[0])
	mem.Put(keys[0], seg[:len(seg)-3])
	if _, err := Open(mem, smallOpts()); err == nil {
		t.Fatal("truncated non-final WAL segment accepted")
	}
}

// A complete batch record with flipped bytes is corruption, not a torn
// write: the single CRC must reject it.
func TestBatchCRCCorruptionDetected(t *testing.T) {
	mem := oss.NewMem()
	db, _ := Open(mem, smallOpts())
	var b Batch
	b.Put([]byte("x"), []byte("y"))
	b.Put([]byte("p"), []byte("q"))
	db.Apply(&b)
	db.Sync()
	keys, _ := mem.List("kv/wal/")
	seg, _ := mem.Get(keys[0])
	seg = bytes.Clone(seg) // a Get result is read-only
	seg[len(seg)-1] ^= 0xFF
	mem.Put(keys[0], seg)
	if _, err := Open(mem, smallOpts()); err == nil {
		t.Fatal("corrupted batch record accepted")
	}
}

// TestReplRecordTornDecode extends the torn-batch contract to the
// replication log: a record torn at ANY byte, bit-flipped anywhere, or
// followed by trailing garbage must be rejected whole with
// ErrBadReplRecord — a follower can never apply a partial batch — while
// the intact record round-trips exactly.
func TestReplRecordTornDecode(t *testing.T) {
	var b Batch
	for i := 0; i < 8; i++ {
		b.Put([]byte(fmt.Sprintf("fp%04d", i)), bytes.Repeat([]byte{byte(i)}, 24))
	}
	b.Delete([]byte("fp0003"))
	rec := AppendReplRecord(nil, 7, 42, &b)

	term, index, got, err := DecodeReplRecord(rec)
	if err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	if term != 7 || index != 42 || got.Len() != b.Len() {
		t.Fatalf("round trip = term %d index %d len %d", term, index, got.Len())
	}
	if !bytes.Equal(AppendReplRecord(nil, term, index, got), rec) {
		t.Fatal("decoded record does not re-encode identically")
	}

	// Every truncation point, including the empty prefix.
	for cut := 0; cut < len(rec); cut++ {
		if _, _, tb, err := DecodeReplRecord(rec[:cut]); !errors.Is(err, ErrBadReplRecord) {
			t.Fatalf("cut at %d: err = %v, want ErrBadReplRecord", cut, err)
		} else if tb != nil {
			t.Fatalf("cut at %d: partial batch surfaced", cut)
		}
	}
	// Every single-bit flip: the CRC (or a structural check) must catch it.
	for pos := 0; pos < len(rec); pos++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte{}, rec...)
			mut[pos] ^= 1 << bit
			if _, _, _, err := DecodeReplRecord(mut); err == nil {
				t.Fatalf("flip at byte %d bit %d accepted", pos, bit)
			}
		}
	}
	// Trailing bytes after a complete record are garbage, not slack.
	for _, extra := range [][]byte{{0}, {0xFE}, bytes.Repeat([]byte{0xAA}, 9)} {
		mut := append(append([]byte{}, rec...), extra...)
		if _, _, _, err := DecodeReplRecord(mut); !errors.Is(err, ErrBadReplRecord) {
			t.Fatalf("trailing %d bytes: err = %v, want ErrBadReplRecord", len(extra), err)
		}
	}
}

func TestGetMultiAcrossLayers(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	want := map[string]string{}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("k%04d", i)
		v := fmt.Sprintf("v%d", i)
		db.Put([]byte(k), []byte(v))
		want[k] = v
		if i%41 == 0 {
			db.Flush() // several L0 tables plus compactions into L1
		}
	}
	// Overwrites and deletes spread across memtable and tables.
	for i := 0; i < 300; i += 7 {
		k := fmt.Sprintf("k%04d", i)
		db.Put([]byte(k), []byte("new"))
		want[k] = "new"
	}
	for i := 3; i < 300; i += 13 {
		k := fmt.Sprintf("k%04d", i)
		db.Delete([]byte(k))
		delete(want, k)
	}

	var keys [][]byte
	for i := 0; i < 350; i++ { // includes 50 absent keys
		keys = append(keys, []byte(fmt.Sprintf("k%04d", i)))
	}
	values, found, err := db.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		wv, ok := want[string(k)]
		if ok != found[i] {
			t.Fatalf("key %s: found=%v, want %v", k, found[i], ok)
		}
		if ok && string(values[i]) != wv {
			t.Fatalf("key %s = %q, want %q", k, values[i], wv)
		}
	}
}

// Property: GetMulti agrees with a loop of Gets on random workloads.
func TestQuickGetMultiMatchesGet(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Del bool
	}, probe []byte) bool {
		db, err := Open(oss.NewMem(), smallOpts())
		if err != nil {
			return false
		}
		for i, op := range ops {
			k := []byte(fmt.Sprintf("key%d", op.Key%24))
			if op.Del {
				db.Delete(k)
			} else {
				db.Put(k, []byte(fmt.Sprintf("v%d", i)))
			}
			if i%11 == 0 {
				db.Flush()
			}
		}
		keys := make([][]byte, len(probe))
		for i, p := range probe {
			keys[i] = []byte(fmt.Sprintf("key%d", p%32)) // some absent
		}
		values, found, err := db.GetMulti(keys)
		if err != nil {
			return false
		}
		for i, k := range keys {
			v, ok, err := db.Get(k)
			if err != nil || ok != found[i] || !bytes.Equal(v, values[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKVBatchPut measures group-committed writes (one WAL record,
// one lock acquisition per 64 entries) against BenchmarkKVPut's singles.
func BenchmarkKVBatchPut(b *testing.B) {
	db, _ := Open(oss.NewMem(), Options{})
	val := make([]byte, 64)
	var batch Batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Put([]byte(fmt.Sprintf("key%08d", i)), val)
		if batch.Len() == 64 {
			if err := db.Apply(&batch); err != nil {
				b.Fatal(err)
			}
			batch.Reset()
		}
	}
	if batch.Len() > 0 {
		if err := db.Apply(&batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVGetMulti measures sorted 64-key batch lookups against
// BenchmarkKVGet's point reads over the same keyspace.
func BenchmarkKVGetMulti(b *testing.B) {
	db, _ := Open(oss.NewMem(), Options{})
	val := make([]byte, 64)
	for i := 0; i < 10000; i++ {
		db.Put([]byte(fmt.Sprintf("key%08d", i)), val)
	}
	db.Flush()
	keys := make([][]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i += len(keys) {
		for j := range keys {
			keys[j] = []byte(fmt.Sprintf("key%08d", (i+j*157)%10000))
		}
		if _, _, err := db.GetMulti(keys); err != nil {
			b.Fatal(err)
		}
	}
}
