package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"slimstore/internal/oss"
)

func smallOpts() Options {
	return Options{
		MemtableBytes:   8 << 10,
		WALFlushBytes:   2 << 10,
		L0Threshold:     3,
		TargetFileBytes: 8 << 10,
		LevelRatio:      4,
		MaxLevels:       4,
	}
}

func TestPutGet(t *testing.T) {
	db, err := Open(oss.NewMem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("k1"))
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := db.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
	// Overwrite.
	db.Put([]byte("k1"), []byte("v2"))
	v, _, _ = db.Get([]byte("k1"))
	if string(v) != "v2" {
		t.Fatalf("after overwrite Get = %q", v)
	}
	// Delete.
	db.Delete([]byte("k1"))
	if _, ok, _ := db.Get([]byte("k1")); ok {
		t.Fatal("deleted key still visible")
	}
}

func TestFlushAndGetFromTables(t *testing.T) {
	mem := oss.NewMem()
	db, _ := Open(mem, smallOpts())
	want := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("key%04d", i)
		v := fmt.Sprintf("value%d", i*i)
		want[k] = v
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Flushes == 0 || st.TablesLive == 0 {
		t.Fatalf("stats after flush: %+v", st)
	}
	for k, v := range want {
		got, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v, %v; want %q", k, got, ok, err, v)
		}
	}
}

func TestOverwritesAcrossFlushes(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("key%02d", i)
			v := fmt.Sprintf("round%d-%d", round, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key%02d", i)
		got, ok, _ := db.Get([]byte(k))
		if !ok || string(got) != fmt.Sprintf("round4-%d", i) {
			t.Fatalf("Get(%s) = %q, %v; want round4 value", k, got, ok)
		}
	}
}

func TestDeleteAcrossFlushCompact(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	db.Flush()
	for i := 0; i < 100; i += 2 {
		db.Delete([]byte(fmt.Sprintf("k%03d", i)))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_, ok, _ := db.Get([]byte(fmt.Sprintf("k%03d", i)))
		if i%2 == 0 && ok {
			t.Fatalf("k%03d visible after delete+compact", i)
		}
		if i%2 == 1 && !ok {
			t.Fatalf("k%03d lost by compaction", i)
		}
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	mem := oss.NewMem()
	db, _ := Open(mem, smallOpts())
	for i := 0; i < 20; i++ {
		db.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	// Sync the WAL but do NOT flush the memtable; simulate a crash by
	// reopening from the same OSS without Close.
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(mem, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, ok, err := db2.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || !ok || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered Get(k%d) = %q, %v, %v", i, got, ok, err)
		}
	}
	// New writes after recovery must get larger sequence numbers than any
	// replayed write (no clobbering).
	db2.Put([]byte("k0"), []byte("newest"))
	got, _, _ := db2.Get([]byte("k0"))
	if string(got) != "newest" {
		t.Fatalf("post-recovery overwrite lost: %q", got)
	}
}

func TestRecoveryAfterFlushAndMore(t *testing.T) {
	mem := oss.NewMem()
	db, _ := Open(mem, smallOpts())
	db.Put([]byte("a"), []byte("1"))
	db.Flush()
	db.Put([]byte("b"), []byte("2"))
	db.Sync()

	db2, err := Open(mem, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range [][2]string{{"a", "1"}, {"b", "2"}} {
		got, ok, _ := db2.Get([]byte(kv[0]))
		if !ok || string(got) != kv[1] {
			t.Fatalf("Get(%s) = %q, %v", kv[0], got, ok)
		}
	}
}

func TestWALCorruptionDetected(t *testing.T) {
	mem := oss.NewMem()
	db, _ := Open(mem, smallOpts())
	db.Put([]byte("a"), []byte("1"))
	db.Sync()
	keys, _ := mem.List("kv/wal/")
	if len(keys) != 1 {
		t.Fatalf("wal segments = %v", keys)
	}
	seg, _ := mem.Get(keys[0])
	seg = bytes.Clone(seg) // a Get result is read-only
	seg[len(seg)-1] ^= 0xFF
	mem.Put(keys[0], seg)
	if _, err := Open(mem, smallOpts()); err == nil {
		t.Fatal("corrupted WAL accepted")
	}
}

func TestScan(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Flush()
	for i := 100; i < 120; i++ { // some still in memtable
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("k050"))

	var keys []string
	err := db.Scan([]byte("k010"), []byte("k110"), func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 99 { // 100 keys in [10,110) minus deleted k050
		t.Fatalf("scan returned %d keys, want 99", len(keys))
	}
	if keys[0] != "k010" || keys[len(keys)-1] != "k109" {
		t.Fatalf("scan bounds wrong: %s .. %s", keys[0], keys[len(keys)-1])
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			t.Fatal("scan keys not strictly ascending")
		}
	}
	for _, k := range keys {
		if k == "k050" {
			t.Fatal("deleted key in scan")
		}
	}

	// Early stop.
	n := 0
	db.Scan(nil, nil, func(k, v []byte) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestCompactionReducesTables(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	r := rand.New(rand.NewSource(1))
	val := make([]byte, 64)
	for i := 0; i < 3000; i++ {
		r.Read(val)
		if err := db.Put([]byte(fmt.Sprintf("key%05d", r.Intn(1000))), val); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compactions ran: %+v", st)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	// After full compaction every key readable; only ~1000 live keys.
	live := 0
	db.Scan(nil, nil, func(k, v []byte) bool { live++; return true })
	if live > 1000 {
		t.Fatalf("scan found %d keys, want <= 1000", live)
	}
}

func TestClosedOps(t *testing.T) {
	db, _ := Open(oss.NewMem(), Options{})
	db.Put([]byte("k"), []byte("v"))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("x"), []byte("y")); err != ErrClosed {
		t.Fatalf("Put after close = %v", err)
	}
	if _, _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close = %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestBloomShortCircuits(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("present%04d", i)), []byte("v"))
	}
	db.Flush()
	for i := 0; i < 500; i++ {
		db.Get([]byte(fmt.Sprintf("absent%04d", i)))
	}
	st := db.Stats()
	if st.BloomNegative < 400 {
		t.Fatalf("bloom filtered only %d of 500 absent lookups", st.BloomNegative)
	}
}

func TestSkiplistOrdering(t *testing.T) {
	s := newSkiplist(1)
	for i := 0; i < 100; i++ {
		s.insert(entry{key: []byte(fmt.Sprintf("k%02d", (i*37)%100)), seq: uint64(i + 1)})
	}
	var prev *entry
	for it := s.iter(); it.valid(); it.next() {
		if prev != nil && !internalLess(prev, it.cur()) {
			t.Fatal("skiplist out of order")
		}
		e := *it.cur()
		prev = &e
	}
	if s.count != 100 {
		t.Fatalf("count = %d", s.count)
	}
	// Newest version wins on get.
	s.insert(entry{key: []byte("k01"), seq: 1000, value: []byte("new")})
	e, ok := s.get([]byte("k01"))
	if !ok || string(e.value) != "new" {
		t.Fatalf("get = %+v, %v", e, ok)
	}
}

// tableGet looks key up in the one table meta names, through the probe
// GetMulti runs on every table it consults.
func tableGet(db *DB, meta tableMeta, key []byte) ([]byte, bool, error) {
	values, found := make([][]byte, 1), make([]bool, 1)
	_, err := db.tableGetMultiLocked(meta, []keyRef{{key: key}}, values, found)
	return values[0], found[0], err
}

func TestSSTableRoundTrip(t *testing.T) {
	b := newSSTBuilder()
	var want []entry
	for i := 0; i < 1000; i++ {
		e := entry{
			key:   []byte(fmt.Sprintf("key%06d", i)),
			value: bytes.Repeat([]byte{byte(i)}, i%100),
			seq:   uint64(i + 1),
			kind:  kindPut,
		}
		want = append(want, e)
		b.add(&e)
	}
	obj := b.finish()

	mem := oss.NewMem()
	db, _ := Open(mem, Options{})
	meta := tableMeta{Name: "t.sst", Size: int64(len(obj)), Count: 1000, Smallest: []byte("key000000"), Largest: []byte("key000999")}
	mem.Put(db.tableKey("t.sst"), obj)
	r, err := db.openTable(meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.index) < 2 {
		t.Fatalf("expected multiple blocks, got %d", len(r.index))
	}
	for _, e := range want {
		got, ok, err := tableGet(db, meta, e.key)
		if err != nil || !ok {
			t.Fatalf("get(%s) = %v, %v", e.key, ok, err)
		}
		if !bytes.Equal(got, e.value) {
			t.Fatalf("get(%s) wrong value", e.key)
		}
	}
	all, err := db.readTablesLocked([]tableMeta{meta})
	if err != nil || len(all) != 1000 {
		t.Fatalf("readTablesLocked = %d, %v", len(all), err)
	}
}

// Property: a model map and the DB agree under random workloads with
// interleaved flushes and compactions.
func TestQuickModelCheck(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val uint16
		Del bool
	}) bool {
		db, err := Open(oss.NewMem(), smallOpts())
		if err != nil {
			return false
		}
		model := map[string]string{}
		for i, op := range ops {
			k := fmt.Sprintf("key%d", op.Key%32)
			if op.Del {
				if db.Delete([]byte(k)) != nil {
					return false
				}
				delete(model, k)
			} else {
				v := fmt.Sprintf("val%d", op.Val)
				if db.Put([]byte(k), []byte(v)) != nil {
					return false
				}
				model[k] = v
			}
			if i%13 == 0 {
				if db.Flush() != nil {
					return false
				}
			}
		}
		if db.Compact() != nil {
			return false
		}
		for k, v := range model {
			got, ok, err := db.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				return false
			}
		}
		n := 0
		db.Scan(nil, nil, func(k, v []byte) bool {
			if model[string(k)] != string(v) {
				n = -1 << 30
			}
			n++
			return true
		})
		return n == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkKVPut(b *testing.B) {
	db, _ := Open(oss.NewMem(), Options{})
	val := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Put([]byte(fmt.Sprintf("key%08d", i)), val)
	}
}

func BenchmarkKVGet(b *testing.B) {
	db, _ := Open(oss.NewMem(), Options{})
	val := make([]byte, 64)
	for i := 0; i < 10000; i++ {
		db.Put([]byte(fmt.Sprintf("key%08d", i)), val)
	}
	db.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("key%08d", i%10000)))
	}
}

func TestBlockCacheHits(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	db.Flush()
	// Repeated lookups of the same key hit the cached block after the
	// first read.
	for i := 0; i < 10; i++ {
		if _, ok, err := db.Get([]byte("key0007")); err != nil || !ok {
			t.Fatalf("Get: %v, %v", ok, err)
		}
	}
	st := db.Stats()
	if st.BlockCacheHits < 8 {
		t.Fatalf("block cache hits = %d, want >= 8 (reads %d)", st.BlockCacheHits, st.TableReads)
	}
}

func TestBlockCacheDisabled(t *testing.T) {
	opts := smallOpts()
	opts.BlockCacheBytes = -1
	db, _ := Open(oss.NewMem(), opts)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v"))
	}
	db.Flush()
	for i := 0; i < 5; i++ {
		db.Get([]byte("key0001"))
	}
	if st := db.Stats(); st.BlockCacheHits != 0 {
		t.Fatalf("disabled cache recorded %d hits", st.BlockCacheHits)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	c := newBlockCache(100)
	es := []entry{{key: []byte("k")}}
	c.put(blockKey{"t1", 0}, es, 60)
	c.put(blockKey{"t2", 0}, es, 60) // evicts t1
	if _, ok := c.get(blockKey{"t1", 0}); ok {
		t.Fatal("t1 survived eviction")
	}
	if _, ok := c.get(blockKey{"t2", 0}); !ok {
		t.Fatal("t2 missing")
	}
	// Oversized blocks are not admitted.
	c.put(blockKey{"t3", 0}, es, 1000)
	if _, ok := c.get(blockKey{"t3", 0}); ok {
		t.Fatal("oversized block admitted")
	}
	// drop removes a table's blocks.
	c.put(blockKey{"t2", 16}, es, 20)
	c.drop("t2")
	if _, ok := c.get(blockKey{"t2", 0}); ok {
		t.Fatal("drop left t2 blocks")
	}
	// nil cache is inert.
	var nc *blockCache
	nc.put(blockKey{"x", 0}, es, 1)
	if _, ok := nc.get(blockKey{"x", 0}); ok {
		t.Fatal("nil cache returned a block")
	}
	nc.drop("x")
}

func TestConcurrentReadersAndWriter(t *testing.T) {
	db, _ := Open(oss.NewMem(), smallOpts())
	for i := 0; i < 200; i++ {
		db.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v0"))
	}
	db.Flush()
	done := make(chan error, 5)
	// One writer mutating...
	go func() {
		for i := 0; i < 500; i++ {
			if err := db.Put([]byte(fmt.Sprintf("k%04d", i%200)), []byte(fmt.Sprintf("v%d", i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// ...four readers hammering gets.
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < 500; i++ {
				if _, _, err := db.Get([]byte(fmt.Sprintf("k%04d", (i+w)%200))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for i := 0; i < 5; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestBinaryKeysSurviveManifestReload pins down a durability bug found by
// the chaos harness: table key bounds stored as Go strings were mangled by
// the JSON manifest round-trip (encoding/json replaces invalid UTF-8 with
// U+FFFD), so after a reopen the leveled-Get range check skipped tables and
// point lookups durably missed keys that a full Scan still found. Binary
// keys (like fingerprints) must survive flush, compaction into L1, and a
// fresh Open.
func TestBinaryKeysSurviveManifestReload(t *testing.T) {
	mem := oss.NewMem()
	db, err := Open(mem, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	keys := make([][]byte, 500)
	for i := range keys {
		k := make([]byte, 20)
		rng.Read(k) // arbitrary bytes: most are invalid UTF-8
		keys[i] = k
		if err := db.Put(k, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
		// Periodic flushes build several L0 tables and force at least one
		// compaction into a bounded deeper level.
		if i%100 == 99 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var deep bool
	for _, m := range db.man.Tables {
		if m.Level > 0 {
			deep = true
		}
	}
	if !deep {
		t.Fatal("setup did not push any table below L0")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(mem, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		v, ok, err := re.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("key %d lost after reopen (durable point-get miss)", i)
		}
		if v[0] != byte(i) || v[1] != byte(i>>8) {
			t.Fatalf("key %d: wrong value %v", i, v)
		}
	}
}

// BenchmarkOpenReplay times a cold Open: over 8 and over 64 live WAL
// segments of one 70-entry batch each (one rdata-jobs index commit), which
// is what a handle that syncs and never closes leaves — at most one replay
// wave — and over what 63 such commits and a Close leave.
func BenchmarkOpenReplay(b *testing.B) {
	const perCommit = 70
	rng := rand.New(rand.NewSource(1))
	batch := func() []entry {
		es := make([]entry, perCommit)
		for i := range es {
			es[i] = entry{key: make([]byte, 20), value: make([]byte, 8), kind: kindPut}
			rng.Read(es[i].key)
		}
		return es
	}
	bench := func(name string, mem *oss.Mem) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Open(mem, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 64} {
		mem := oss.NewMem()
		db := &DB{opts: Options{Prefix: "kv/"}}
		for s := 0; s < n; s++ {
			if err := mem.Put(db.walKey(uint64(s)), appendRecord(nil, walBatchKind, batch(), uint64(1+s*perCommit))); err != nil {
				b.Fatal(err)
			}
		}
		bench(fmt.Sprintf("segments-%d", n), mem)
	}

	mem := oss.NewMem()
	db, err := Open(mem, Options{})
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < blockFetchWidth-1; s++ {
		var bt Batch
		for _, e := range batch() {
			bt.Put(e.key, e.value)
		}
		if err := db.Apply(&bt); err != nil {
			b.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	bench("closed", mem)
}
