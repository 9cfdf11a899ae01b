package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"slimstore/internal/kvstore"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

func testOpts() Options {
	return Options{
		Replicas: 3,
		Prefix:   "grp/",
		// Tiny thresholds so WAL activity and truncation happen inside
		// small tests.
		KV:                kvstore.Options{WALFlushBytes: 64},
		HeartbeatTimeout:  150 * 1e6, // 150ms, pinned so downtime assertions are exact
		ElectionRoundTrip: 5 * 1e6,   // 5ms
		SyncEvery:         4,
		TruncateEvery:     8,
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("val-%04d", i)) }
func putBatch(i int) *kvstore.Batch {
	var b kvstore.Batch
	b.Put(key(i), val(i))
	return &b
}

// get resolves one key through the group: a GetMulti of one.
func get(g *Group, k []byte) ([]byte, bool, error) {
	vals, found, err := g.GetMulti([][]byte{k})
	if err != nil {
		return nil, false, err
	}
	return vals[0], found[0], nil
}

// mustGet asserts the group resolves key(i) to val(i).
func mustGet(t *testing.T, g *Group, i int) {
	t.Helper()
	v, ok, err := get(g, key(i))
	if err != nil {
		t.Fatalf("get %d: %v", i, err)
	}
	if !ok || string(v) != string(val(i)) {
		t.Fatalf("get %d: ok=%v v=%q", i, ok, v)
	}
}

func TestGroupApplyAndRead(t *testing.T) {
	g, err := Open(oss.NewMem(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := g.Apply(putBatch(i)); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	for i := 0; i < 20; i++ {
		mustGet(t, g, i)
	}
	// Batched read.
	keys := [][]byte{key(3), key(7), []byte("missing")}
	vals, found, err := g.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || !found[1] || found[2] {
		t.Fatalf("found = %v", found)
	}
	if string(vals[0]) != string(val(3)) {
		t.Fatalf("vals[0] = %q", vals[0])
	}
	// Scan hides the reserved state key.
	n := 0
	if err := g.Scan(nil, nil, func(k, v []byte) bool {
		if string(k) == string(stateKey) {
			t.Fatalf("state key leaked into scan")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("scan saw %d keys, want 20", n)
	}
	s := g.ReplStats()
	if s.Commit != 20 || s.Appends != 20 || s.Leader < 0 {
		t.Fatalf("stats = %+v", s)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestLeaderFailover(t *testing.T) {
	acct := simclock.NewAccount()
	opts := testOpts()
	opts.Downtime = acct
	g, err := Open(oss.NewMem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := g.Apply(putBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	old := g.KillLeader()
	if old < 0 {
		t.Fatal("no leader to kill")
	}
	// The next operation elects a new leader transparently and serves
	// every committed write.
	for i := 10; i < 20; i++ {
		if err := g.Apply(putBatch(i)); err != nil {
			t.Fatalf("apply after leader kill: %v", err)
		}
	}
	for i := 0; i < 20; i++ {
		mustGet(t, g, i)
	}
	s := g.ReplStats()
	if s.Leader == old {
		t.Fatalf("killed leader %d still leads", old)
	}
	if s.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", s.Failovers)
	}
	want := opts.HeartbeatTimeout + 2*opts.ElectionRoundTrip
	if s.DowntimeVirtual != want {
		t.Fatalf("downtime = %v, want %v", s.DowntimeVirtual, want)
	}
	if acct.CPUPhase(PhaseFailover) != want {
		t.Fatalf("account charged %v, want %v", acct.CPUPhase(PhaseFailover), want)
	}
	// The crashed ex-leader rejoins and catches up from the log.
	if err := g.Restart(old); err != nil {
		t.Fatal(err)
	}
	if g.ReplStats().CatchUpRecords == 0 {
		t.Fatal("restart did not replay any log records")
	}
}

func TestFencingStaleLeader(t *testing.T) {
	g, err := Open(oss.NewMem(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(putBatch(0)); err != nil {
		t.Fatal(err)
	}
	h, err := g.Handle()
	if err != nil {
		t.Fatal(err)
	}
	// Partition the leader; a new leader is elected at a higher term.
	oldLeader := g.Leader()
	g.Partition(oldLeader)
	if err := g.Apply(putBatch(1)); err != nil {
		t.Fatalf("apply during partition: %v", err)
	}
	g.Heal(oldLeader)
	// The deposed leader's lease is now stale: its append must be
	// fenced before anything reaches the log.
	appendsBefore := g.ReplStats().Appends
	if err := h.Apply(putBatch(99)); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale apply err = %v, want ErrFenced", err)
	}
	s := g.ReplStats()
	if s.Appends != appendsBefore {
		t.Fatal("fenced append still reached the log")
	}
	if s.FencingRejects == 0 {
		t.Fatal("fencing reject not counted")
	}
	if _, ok, err := get(g, key(99)); err != nil || ok {
		t.Fatalf("fenced write visible: ok=%v err=%v", ok, err)
	}
	// A fresh handle at the current term works.
	h2, err := g.Handle()
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Apply(putBatch(2)); err != nil {
		t.Fatal(err)
	}
	mustGet(t, g, 2)
}

func TestNoQuorumFailsLoudly(t *testing.T) {
	g, err := Open(oss.NewMem(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(putBatch(0)); err != nil {
		t.Fatal(err)
	}
	// Kill two of three: one survivor < quorum of 2.
	g.Kill(0)
	g.Kill(1)
	if err := g.Apply(putBatch(1)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("apply err = %v, want ErrNoQuorum", err)
	}
	if _, _, err := get(g, key(0)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("get err = %v, want ErrNoQuorum", err)
	}
	// Restarts restore the quorum; the group resumes where it stopped.
	if err := g.Restart(0); err != nil {
		t.Fatal(err)
	}
	if err := g.Restart(1); err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(putBatch(1)); err != nil {
		t.Fatal(err)
	}
	mustGet(t, g, 0)
	mustGet(t, g, 1)
}

// TestReopenRecovers crashes the whole group process (no Close) and
// reopens it: every quorum-committed batch must be served, because the
// log put was the durability point.
func TestReopenRecovers(t *testing.T) {
	store := oss.NewMem()
	g, err := Open(store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := g.Apply(putBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon g without Close: memtables and WAL buffers die with it.
	g2, err := Open(store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mustGet(t, g2, i)
	}
	if c := g2.ReplStats().Commit; c != 30 {
		t.Fatalf("recovered commit = %d, want 30", c)
	}
}

// TestReopenAfterFailoverIsNotBehindItsReplicas: records appended after a
// failover carry the later term, and replaying them at open raises every
// replica's term past the one the replicas had persisted. A group that
// settled its own term before the replay was fenced by all of its replicas
// on the first append, for good — the error must also say so.
func TestReopenAfterFailoverIsNotBehindItsReplicas(t *testing.T) {
	store := oss.NewMem()
	opts := testOpts()
	opts.KV = kvstore.Options{} // nothing of the first process is synced
	g, err := Open(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	g.KillLeader()
	if err := g.Apply(putBatch(0)); err != nil {
		t.Fatal(err)
	}
	g2, err := Open(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g2.Apply(putBatch(1)); err != nil {
		t.Fatalf("apply after reopen: %v", err)
	}
	for _, n := range g2.nodes {
		if term := g2.ReplStats().Term; term < n.term {
			t.Fatalf("group at term %d behind replica %d at term %d", term, n.id, n.term)
		}
	}
	mustGet(t, g2, 0)
	mustGet(t, g2, 1)

	// A lost quorum says why each replica did not acknowledge.
	h, err := g2.Handle()
	if err != nil {
		t.Fatal(err)
	}
	g2.Kill(0)
	g2.nodes[1].term += 5
	err = h.Apply(putBatch(2))
	if !errors.Is(err, ErrNoQuorum) || !strings.Contains(err.Error(), "1 unreachable") || !strings.Contains(err.Error(), "rejects term") {
		t.Fatalf("got %v, want ErrNoQuorum naming the dead and the fencing replica", err)
	}
}

// TestFollowerCrashMidApply is the replicated extension of the kvstore
// torn-batch cases: a follower whose storage dies mid-stream must, when
// inspected directly, expose all-or-nothing batch visibility — its
// persisted position marker and its data always agree — and must
// converge after a restart plus log catch-up.
func TestFollowerCrashMidApply(t *testing.T) {
	faulty := oss.NewFaulty(oss.NewMem())
	opts := testOpts()
	opts.KV.WALFlushBytes = 1 // every apply syncs, so the fault lands mid-stream
	// Replica 2's storage goes dark after its twelfth put, wherever in an
	// apply that falls: the cut is drawn by the store, not between applies.
	var puts atomic.Int32
	g, err := Open(oss.With(faulty, oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind == oss.KindPut && strings.HasPrefix(op.Key, "grp/n2/") && puts.Add(1) == 13 {
			faulty.SetOutage("grp/n2/", true)
		}
		return oss.Do(next, op)
	})), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := g.Apply(putBatch(i)); err != nil {
			t.Fatalf("apply %d: %v", i, err) // quorum of 2 must survive
		}
	}
	if g.ReplStats().NodeFailures == 0 {
		t.Fatal("fault injection never crashed replica 2")
	}

	// Inspect the crashed replica's store directly, as recovery would:
	// reopen its kvstore and check the all-or-nothing contract.
	faulty.Clear()
	kv := opts.KV
	kv.Prefix = "grp/n2/"
	db, err := kvstore.Open(faulty, kv)
	if err != nil {
		t.Fatal(err)
	}
	applied := uint64(0)
	if v, ok, err := db.Get(stateKey); err != nil {
		t.Fatal(err)
	} else if ok {
		_, applied = decodeState(v)
	}
	if applied == 0 || applied >= 20 {
		t.Fatalf("replica 2 applied = %d, want a strict mid-stream prefix", applied)
	}
	for i := 0; i < 20; i++ {
		_, ok, err := db.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		// Log index i+1 carries batch i: everything at or below the
		// position marker is present, everything above it is absent.
		if want := uint64(i+1) <= applied; ok != want {
			t.Fatalf("replica 2 key %d: present=%v, applied=%d", i, ok, applied)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart through the group: log catch-up completes the suffix.
	if err := g.Restart(2); err != nil {
		t.Fatal(err)
	}
	if got, want := g.nodes[2].applied, g.ReplStats().Commit; got != want {
		t.Fatalf("recovered replica applied = %d, want commit %d", got, want)
	}
	for i := 0; i < 20; i++ {
		mustGet(t, g, i)
	}
}

func TestLogTruncation(t *testing.T) {
	store := oss.NewMem()
	opts := testOpts()
	opts.SyncEvery = 1
	opts.TruncateEvery = 4
	g, err := Open(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := g.Apply(putBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := g.ReplStats()
	if s.LogTruncated == 0 {
		t.Fatalf("no log records truncated: %+v", s)
	}
	keys, err := store.List("grp/log/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 || len(keys) >= 40 {
		t.Fatalf("log holds %d records after truncation", len(keys))
	}
	// The truncated group still reopens and serves everything.
	g2, err := Open(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mustGet(t, g2, i)
	}
}

// TestSingleReplicaGroup covers the degenerate 1-replica configuration:
// quorum 1, no fan-out, but the same durable log semantics.
func TestSingleReplicaGroup(t *testing.T) {
	store := oss.NewMem()
	opts := testOpts()
	opts.Replicas = 1
	g, err := Open(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := g.Apply(putBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	g2, err := Open(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustGet(t, g2, i)
	}
}

// traffic sums what a recorder at the base store saw, underneath the
// kvstores and the replication log alike: puts, their bytes, and reads.
func traffic(rec *oss.Recorder) (putOps, putBytes, getOps int64) {
	for _, q := range rec.Requests(nil) {
		switch q.Kind {
		case oss.KindPut:
			putOps++
			putBytes += q.Bytes
		case oss.KindGet, oss.KindGetRange:
			getOps++
		}
	}
	return
}

// TestReplicationOverheadBounded: the same index-shaped workload (64
// batches of 64 fingerprint-sized keys, durable per batch, then read
// back) on one kvstore synced per batch and on a 3-replica group.
// Durability through the shared log must cost less than mirroring — puts
// at most doubled, put bytes less than tripled — and reads stay
// leader-local. The lower bounds only catch a group that stopped writing
// its log: the single store also turns every eighth segment into a table
// while the replicas, synced every SyncEvery applies, stay under that
// bound, so the group may come in a little below 1×.
func TestReplicationOverheadBounded(t *testing.T) {
	const batches, entries, replicas = 64, 64, 3
	run := func(apply func(*kvstore.Batch) error, flush func() error,
		read func([][]byte) ([][]byte, []bool, error)) {
		t.Helper()
		rng := rand.New(rand.NewSource(23)) // both sides see identical batches
		keys := make([][][]byte, batches)
		for i := range keys {
			var b kvstore.Batch
			for j := 0; j < entries; j++ {
				k, v := make([]byte, 20), make([]byte, 8)
				rng.Read(k)
				rng.Read(v)
				b.Put(k, v)
				keys[i] = append(keys[i], k)
			}
			if err := apply(&b); err != nil {
				t.Fatal(err)
			}
		}
		if err := flush(); err != nil {
			t.Fatal(err)
		}
		for i, kb := range keys {
			_, found, err := read(kb)
			if err != nil {
				t.Fatal(err)
			}
			for j := range kb {
				if !found[j] {
					t.Fatalf("batch %d key %d lost after a durable apply", i, j)
				}
			}
		}
	}

	var single, group oss.Recorder
	db, err := kvstore.Open(oss.With(oss.NewMem(), &single), kvstore.Options{Prefix: "idx/"})
	if err != nil {
		t.Fatal(err)
	}
	run(func(b *kvstore.Batch) error {
		if err := db.Apply(b); err != nil {
			return err
		}
		return db.Sync() // the durability point the group's log put provides
	}, db.Flush, db.GetMulti)

	g, err := Open(oss.With(oss.NewMem(), &group), Options{Prefix: "grp/", Replicas: replicas})
	if err != nil {
		t.Fatal(err)
	}
	run(g.Apply, g.Sync, g.GetMulti)

	sPuts, sBytes, sGets := traffic(&single)
	gPuts, gBytes, gGets := traffic(&group)
	if sPuts == 0 || sGets == 0 {
		t.Fatalf("degenerate baseline: %d puts, %d gets", sPuts, sGets)
	}
	ratio := func(a, b int64) float64 { return float64(a) / float64(b) }
	if r := ratio(gPuts, sPuts); r < 0.75 || r > 2.0 {
		t.Errorf("put ops %d vs %d = %.2fx, want within [0.75, 2.0]", gPuts, sPuts, r)
	}
	if r := ratio(gBytes, sBytes); r < 0.75 || r >= replicas {
		t.Errorf("put bytes %d vs %d = %.2fx, want within [0.75, %d.0)", gBytes, sBytes, r, replicas)
	}
	if r := ratio(gGets, sGets); r > 1.5 {
		t.Errorf("get ops %d vs %d = %.2fx, want <= 1.5 (reads must stay leader-local)", gGets, sGets, r)
	}
}
