package globalindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/kvstore"
	"slimstore/internal/oss"
	"slimstore/internal/repl"
)

// testFP fabricates a deterministic fingerprint whose first byte spreads
// across the shard space.
func testFP(i int) fingerprint.FP {
	var fp fingerprint.FP
	rng := rand.New(rand.NewSource(int64(i)))
	for j := range fp {
		fp[j] = byte(rng.Intn(256))
	}
	return fp
}

// openSharded builds an n-shard view over one Mem store, replicas per
// shard as given (1 = plain kvstore backend).
func openSharded(t *testing.T, store oss.Store, n, replicas, workers int) *Sharded {
	t.Helper()
	shards := make([]*Index, n)
	for k := 0; k < n; k++ {
		prefix := fmt.Sprintf("gidx/s%d/", k)
		var backend Backend
		if replicas > 1 {
			g, err := repl.Open(store, repl.Options{Replicas: replicas, Prefix: prefix})
			if err != nil {
				t.Fatal(err)
			}
			backend = g
		} else {
			idx, err := Open(store, Options{KV: kvOpts(prefix)})
			if err != nil {
				t.Fatal(err)
			}
			shards[k] = idx
			continue
		}
		shards[k] = OpenBackend(backend)
	}
	s, err := NewSharded(shards, workers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedMatchesSingle drives identical workloads through a single
// index and sharded views (plain and replicated backends) and demands
// identical answers, scan order, and entry counts.
func TestShardedMatchesSingle(t *testing.T) {
	single, err := Open(oss.NewMem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	singleView, err := NewSharded([]*Index{single}, 1)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*Sharded{
		"single":      singleView,
		"4-shard":     openSharded(t, oss.NewMem(), 4, 1, 4),
		"4-shard-3x":  openSharded(t, oss.NewMem(), 4, 3, 4),
		"7-shard-ser": openSharded(t, oss.NewMem(), 7, 1, -1),
	}

	const N = 400
	var batch []Entry
	for i := 0; i < N; i++ {
		batch = append(batch, Entry{FP: testFP(i), ID: container.ID(i)})
	}
	for name, v := range views {
		// Mix a large batch and batches of one, then move some and delete
		// some in one batch that names some fingerprints twice.
		if err := v.PutBatch(batch[:N/2]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := N / 2; i < N; i++ {
			if err := v.PutBatch(batch[i : i+1]); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var fixes []Entry
		for i := 0; i < N; i += 7 {
			fixes = append(fixes, Entry{FP: batch[i].FP, ID: container.ID(i + 1000)})
		}
		for i := 3; i < N; i += 11 {
			fixes = append(fixes, Entry{FP: batch[i].FP, ID: container.Invalid})
		}
		if err := v.PutBatch(fixes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := v.Sync(); err != nil {
			t.Fatalf("%s: sync: %v", name, err)
		}
		// Serve the lookups below from tables where the backend has them.
		for _, sh := range v.shards {
			if err := sh.Flush(); err != nil {
				t.Fatalf("%s: flush: %v", name, err)
			}
		}
	}

	// Point lookups and batch lookups agree everywhere.
	fps := make([]fingerprint.FP, N)
	for i := range fps {
		fps[i] = batch[i].FP
	}
	refIDs, refFound, _, err := views["single"].GetBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range views {
		ids, found, _, err := v.GetBatch(fps)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(ids, refIDs) || !reflect.DeepEqual(found, refFound) {
			t.Errorf("%s: GetBatch diverges from single index", name)
		}
		for i := 0; i < N; i += 13 {
			id, ok, err := v.Get(fps[i])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if ok != refFound[i] || (ok && id != refIDs[i]) {
				t.Errorf("%s: Get(%d) = (%v,%v), want (%v,%v)", name, i, id, ok, refIDs[i], refFound[i])
			}
		}
	}

	// Scan visits fingerprints in global order on every layout, with
	// identical content.
	type pair struct {
		FP fingerprint.FP
		ID container.ID
	}
	dump := func(v *Sharded) []pair {
		var out []pair
		var prev fingerprint.FP
		first := true
		if err := v.Scan(func(fp fingerprint.FP, id container.ID) bool {
			if !first && bytes.Compare(prev[:], fp[:]) >= 0 {
				t.Fatalf("scan out of order: %s after %s", fp.Short(), prev.Short())
			}
			prev, first = fp, false
			out = append(out, pair{fp, id})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := dump(views["single"])
	for name, v := range views {
		if got := dump(v); !reflect.DeepEqual(got, ref) {
			t.Errorf("%s: scan dump diverges (%d vs %d entries)", name, len(got), len(ref))
		}
	}

	// Entry accounting is additive across shards. A replicated shard's
	// engine also holds the group's state key, one version per applied
	// batch until a compaction drops the shadowed ones; none ran here,
	// so a group holds exactly Commit of them.
	want := views["single"].Stats().Entries
	for name, v := range views {
		st := v.Stats()
		wantV := want
		for _, sh := range v.shards {
			if g, ok := sh.db.(*repl.Group); ok {
				wantV += int64(g.ReplStats().Commit)
			}
		}
		if st.KV.Compactions != 0 {
			t.Fatalf("%s: %d compactions, the count below assumes none", name, st.KV.Compactions)
		}
		if st.Entries != wantV {
			t.Errorf("%s: entries = %d, want %d", name, st.Entries, wantV)
		}
	}
}

// TestShardedOnOpHook checks the chaos seam: the hook observes a
// strictly increasing op count and can act on group state mid-stream.
func TestShardedOnOpHook(t *testing.T) {
	s := openSharded(t, oss.NewMem(), 2, 1, 2)
	var fired int64
	s.OnOp(func(n int64) {
		if n == 5 {
			fired = n
		}
	})
	for i := 0; i < 10; i++ {
		if err := s.PutBatch([]Entry{{FP: testFP(i), ID: container.ID(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 5 {
		t.Fatalf("hook never saw op 5 (fired=%d)", fired)
	}
	if s.Ops() != 10 {
		t.Fatalf("ops = %d, want 10", s.Ops())
	}
}

// kvOpts builds KV options with the given prefix for test shards.
func kvOpts(prefix string) (o kvstore.Options) {
	o.Prefix = prefix
	return o
}

// TestShardedCloseFlushesShardsTogether: a Close flushes every shard's
// engine, and the shards close in parallel — the K SST puts are held at a
// barrier until all K are in flight, which a shard-by-shard Close never
// reaches. The next open over the store then replays no WAL.
func TestShardedCloseFlushesShardsTogether(t *testing.T) {
	const k = 4
	mem := oss.NewMem()
	bar := oss.Barrier{Timeout: 5 * time.Second}
	store := oss.With(mem, &bar)
	s := openSharded(t, store, k, 1, k)
	var batch []Entry
	for i := 0; i < 200; i++ {
		batch = append(batch, Entry{FP: testFP(i), ID: container.ID(i + 1)})
	}
	if err := s.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	bar.Expect(func(op oss.Op) bool { return op.Kind == oss.KindPut && strings.Contains(op.Key, "/sst/") }, k)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bar.Err(); err != nil {
		t.Fatalf("shards closed one after another: %v", err)
	}

	again := openSharded(t, mem, k, 1, k)
	st := again.Stats()
	if st.KV.WALReplayed != 0 || st.KV.TablesLive != k || st.Entries != int64(len(batch)) {
		t.Fatalf("open after Close: %+v, want %d tables, %d entries, nothing replayed", st, k, len(batch))
	}
	for _, e := range batch {
		if id, ok, err := again.Get(e.FP); err != nil || !ok || id != e.ID {
			t.Fatalf("Get after reopen = %v, %v, %v; want %v", id, ok, err, e.ID)
		}
	}
}
