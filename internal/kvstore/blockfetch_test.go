package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"slimstore/internal/oss"
)

var errBlockFetch = errors.New("injected block fetch failure")

func isRanged(op oss.Op) bool { return op.Kind == oss.KindGetRange }

// slowRanged returns inner under a layer that makes each request take real
// time (so concurrent ones overlap observably) and a recorder over it.
func slowRanged(inner oss.Store, under ...oss.Layer) (oss.Store, *oss.Recorder) {
	rec := &oss.Recorder{}
	return oss.With(inner, append([]oss.Layer{rec, oss.Sleep(time.Millisecond)}, under...)...), rec
}

// multiBlockKeys is how many keys the older table of multiBlockStore
// holds: ~170 16 KiB blocks, more than two fetch windows.
const multiBlockKeys = 20000

// multiBlockOpts are the options multiBlockStore writes under: a memtable
// large enough that each table is one flush.
var multiBlockOpts = Options{MemtableBytes: 8 << 20, L0Threshold: 8}

// multiBlockStore persists a layered DB whose tables span many 16 KiB
// data blocks, and returns the store plus the expected contents.
func multiBlockStore(t *testing.T) (*oss.Mem, map[string]string) {
	t.Helper()
	mem := oss.NewMem()
	opts := multiBlockOpts
	db, err := Open(mem, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	val := bytes.Repeat([]byte("x"), 100)
	put := func(i int, tag string) {
		k := fmt.Sprintf("key%05d", i)
		v := fmt.Sprintf("%s-%d-%s", tag, i, val)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	for i := 0; i < multiBlockKeys; i++ {
		put(i, "a")
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < multiBlockKeys; i += 3 { // newer L0 table shadowing a third
		put(i, "b")
	}
	for i := 1; i < multiBlockKeys; i += 50 {
		k := fmt.Sprintf("key%05d", i)
		if err := db.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return mem, want
}

// TestGetMultiConcurrentBlockFetchMatchesGets: a cold batched probe
// overlaps its block reads, and its answers equal a loop of Gets — with
// the default cache, with no cache, and with a cache so small that blocks
// are evicted while the probe is still walking them.
func TestGetMultiConcurrentBlockFetchMatchesGets(t *testing.T) {
	mem, want := multiBlockStore(t)
	var keys [][]byte
	for i := 0; i < multiBlockKeys+100; i += 2 { // the tail is absent
		keys = append(keys, []byte(fmt.Sprintf("key%05d", i)))
	}
	for _, tc := range []struct {
		name  string
		cache int64
	}{{"default-cache", 0}, {"no-cache", -1}, {"tiny-cache", 40 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			store, rec := slowRanged(mem)
			opts := multiBlockOpts
			opts.BlockCacheBytes = tc.cache
			multi, err := Open(store, opts)
			if err != nil {
				t.Fatal(err)
			}
			single, err := Open(mem, opts)
			if err != nil {
				t.Fatal(err)
			}
			values, found, err := multi.GetMulti(keys)
			if err != nil {
				t.Fatal(err)
			}
			calls := len(rec.Requests(isRanged))
			inflight, maxInflight := rec.InFlight(isRanged)
			if inflight != 0 {
				t.Fatalf("%d block fetches still in flight after GetMulti returned", inflight)
			}
			if maxInflight < 2 {
				t.Fatalf("cold probe of %d keys never overlapped its block reads (max in flight %d over %d reads)",
					len(keys), maxInflight, calls)
			}
			if maxInflight > blockFetchWidth {
				t.Fatalf("%d reads in flight, bound is %d", maxInflight, blockFetchWidth)
			}
			for i, k := range keys {
				v, ok, err := single.Get(k)
				if err != nil {
					t.Fatal(err)
				}
				if ok != found[i] || !bytes.Equal(v, values[i]) {
					t.Fatalf("key %s: GetMulti (%q, %v), Get (%q, %v)", k, values[i], found[i], v, ok)
				}
				if wv, in := want[string(k)]; in != ok || (in && wv != string(v)) {
					t.Fatalf("key %s: Get (%q, %v), model (%q, %v)", k, v, ok, wv, in)
				}
			}
			// A block is read at most once per table probe while the cache
			// can hold it: two tables of ~160 and ~55 blocks plus their opens.
			blocks := 0
			for _, r := range multi.readers {
				blocks += len(r.index)
			}
			if tc.cache == 0 && calls > blocks+2*len(multi.readers) {
				t.Fatalf("probe issued %d ranged reads over %d blocks", calls, blocks)
			}
			// Warm repeat: same answers, nothing left to fetch.
			if tc.cache == 0 {
				again, foundAgain, err := multi.GetMulti(keys)
				if err != nil {
					t.Fatal(err)
				}
				for i := range keys {
					if foundAgain[i] != found[i] || !bytes.Equal(again[i], values[i]) {
						t.Fatalf("key %s differs on the warm repeat", keys[i])
					}
				}
				if c2 := len(rec.Requests(isRanged)); c2 != calls {
					t.Fatalf("warm repeat issued %d more ranged reads", c2-calls)
				}
			}
		})
	}
}

// TestGetMultiBlockFetchFailure: when one of the concurrently fetched
// blocks fails, GetMulti returns that error and no fetch outlives it.
func TestGetMultiBlockFetchFailure(t *testing.T) {
	mem, _ := multiBlockStore(t)
	// The ranged read of failKey at failOff fails; both are set between
	// calls into the DB, never while one runs.
	var failKey string
	var failOff int64
	store, rec := slowRanged(mem, oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if isRanged(op) && op.Key == failKey && op.Off == failOff {
			return op, errBlockFetch
		}
		return oss.Do(next, op)
	}))
	db, err := Open(store, multiBlockOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Open the big table's reader, then fail a block in its middle, which
	// lies in the second fetch window or later.
	if _, ok, err := db.Get([]byte("key00004")); err != nil || !ok {
		t.Fatal(err)
	}
	var big *tableReader
	for _, r := range db.readers {
		if big == nil || len(r.index) > len(big.index) {
			big = r
		}
	}
	if big == nil || len(big.index) <= 2*blockFetchWidth {
		t.Fatalf("no table of more than two fetch windows open: %v", db.readers)
	}
	failKey, failOff = db.tableKey(big.meta.Name), int64(big.index[len(big.index)/2].off)

	var keys [][]byte
	for i := 4; i < multiBlockKeys; i += 3 { // live only in the big table
		keys = append(keys, []byte(fmt.Sprintf("key%05d", i)))
	}
	_, _, err = db.GetMulti(keys)
	if !errors.Is(err, errBlockFetch) {
		t.Fatalf("GetMulti error = %v, want the injected block failure", err)
	}
	calls := len(rec.Requests(isRanged))
	if inflight, _ := rec.InFlight(isRanged); inflight != 0 {
		t.Fatalf("%d block fetches still in flight after the failed GetMulti returned", inflight)
	}
	time.Sleep(5 * time.Millisecond)
	if later := len(rec.Requests(isRanged)); later != calls {
		t.Fatalf("%d ranged reads started after GetMulti returned", later-calls)
	}
	// The DB stays usable once the fault clears.
	failKey = ""
	if _, found, err := db.GetMulti(keys); err != nil || !found[0] {
		t.Fatalf("GetMulti after the fault cleared: found[0]=%v err=%v", found[0], err)
	}
}
