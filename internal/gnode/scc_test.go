package gnode

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/journal"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

// storeOp is one recorded mutation: the operation, its key, and (for
// puts) the checksum of the bytes written.
type storeOp struct {
	Kind oss.Kind
	Key  string
	Sum  uint32
}

// recStore is a store under a recorder — every mutation in order, the
// whole-object GETs per key, the reads in flight at once — with optional
// hooks that run after a put or delete has landed.
type recStore struct {
	store       oss.Store
	rec         oss.Recorder
	afterPut    func(key string)
	afterDelete func(key string)
}

// newRecStore records over inner; with perOp > 0 every request under the
// recorder also sleeps that long, so that concurrent reads overlap
// observably (oss.Sleep).
func newRecStore(inner oss.Store, perOp time.Duration) *recStore {
	s := &recStore{}
	hooks := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		op, err := oss.Do(next, op)
		if err == nil && op.Kind == oss.KindPut && s.afterPut != nil {
			s.afterPut(op.Key)
		}
		if err == nil && op.Kind == oss.KindDelete && s.afterDelete != nil {
			s.afterDelete(op.Key)
		}
		return op, err
	})
	s.store = oss.With(inner, &s.rec, hooks, oss.Sleep(perOp))
	return s
}

// maxLanes is the most lanes that had a read in flight at once, lane
// naming what a read of key occupies ("" = not counted). The peak is at
// some read's arrival.
func (s *recStore) maxLanes(lane func(key string) string) int {
	reads := s.rec.Requests(func(op oss.Op) bool { return op.Kind == oss.KindGet || op.Kind == oss.KindGetRange })
	peak := 0
	for _, at := range reads {
		open := map[string]bool{}
		for _, q := range reads {
			if l := lane(q.Key); l != "" && q.Begin <= at.Begin && (q.End == 0 || q.End > at.Begin) {
				open[l] = true
			}
		}
		peak = max(peak, len(open))
	}
	return peak
}

// dataLane gives every container data object its own lane.
func dataLane(key string) string {
	if strings.HasPrefix(key, container.Prefix) && strings.HasSuffix(key, ".data") {
		return key
	}
	return ""
}

func (s *recStore) reset() { s.rec.Take() }

// dataGets is the number of whole-object GETs of id's data object.
func (s *recStore) dataGets(id container.ID) int {
	return len(s.rec.Requests(func(op oss.Op) bool { return op.Kind == oss.KindGet && op.Key == container.DataKey(id) }))
}

// recorded returns the mutations that landed, in order.
func (s *recStore) recorded() []storeOp {
	var ops []storeOp
	for _, q := range s.rec.Requests(func(op oss.Op) bool { return op.Kind == oss.KindPut || op.Kind == oss.KindDelete }) {
		if q.Err == nil {
			ops = append(ops, storeOp{q.Kind, q.Key, q.Sum})
		}
	}
	return ops
}

// openOver opens a repo with the given width over store.
func openOver(t *testing.T, store oss.Store, cfg core.Config, workers int) (*core.Repo, *GNode) {
	t.Helper()
	cfg.MaintWorkers = workers
	repo, err := core.OpenRepo(frozen(t, store), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return repo, New(repo)
}

// assertRestores checks every version of file "f" byte for byte.
func assertRestores(t *testing.T, repo *core.Repo, want map[int][]byte) {
	t.Helper()
	ln := lnode.New(repo, "check")
	for v, data := range want {
		if !bytes.Equal(restoreBytes(t, ln, "f", v), data) {
			t.Fatalf("version %d restores wrong bytes", v)
		}
	}
}

// TestCompactSparseReadsEachSourceOnce: an SCC whose N sources all cross
// the rewrite threshold fetches each source's data object exactly once —
// the rewrite reuses the payload the prepare verified — and the fetches
// overlap.
func TestCompactSparseReadsEachSourceOnce(t *testing.T) {
	mem, cfg, want, st := sccBaseline(t)
	rec := newRecStore(mem, 2*time.Millisecond)
	repo, gn := openOver(t, rec.store, cfg, 4)

	before := map[container.ID]uint32{}
	for _, id := range st.SparseContainers {
		m, err := repo.Containers.ReadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		before[id] = m.DataSize
	}
	rec.reset()
	scc, err := gn.CompactSparse("f", st.Version, st.SparseContainers)
	if err != nil {
		t.Fatal(err)
	}
	if scc.ChunksMoved == 0 {
		t.Fatalf("nothing moved: %+v", scc)
	}
	n := len(st.SparseContainers)
	if n < 4 {
		t.Fatalf("only %d sparse sources; the overlap check would be vacuous", n)
	}
	for _, id := range st.SparseContainers {
		m, err := repo.Containers.ReadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.DataSize >= before[id] || m.StaleProportion() != 0 {
			t.Fatalf("source %s was not rewritten (size %d -> %d, stale %.2f)", id, before[id], m.DataSize, m.StaleProportion())
		}
		if got := rec.dataGets(id); got != 1 {
			t.Errorf("source %s: %d data-object GETs, want exactly 1", id, got)
		}
	}
	maxInFlight := rec.maxLanes(dataLane)
	if maxInFlight < 2 {
		t.Errorf("source reads never overlapped (max %d in flight over %d sources)", maxInFlight, n)
	}
	if maxInFlight > 4 {
		t.Errorf("%d source reads in flight, MaintWorkers is 4", maxInFlight)
	}
	assertRestores(t, repo, want)
}

// TestCompactSparseSkipsDrainedSources: a version whose recipe still names
// sparse sources that an earlier compaction already drained of everything
// it needs — here v2, a byte-identical twin of v1, compacted after v1 — is
// compacted without fetching one of those sources' data objects: the
// metadata says nothing needed is live. Nothing moves, nothing is written,
// and every version still restores.
func TestCompactSparseSkipsDrainedSources(t *testing.T) {
	mem, cfg, want, st := sccBaseline(t)
	rec := newRecStore(mem, 0)
	repo, gn := openOver(t, rec.store, cfg, 4)
	st2, err := lnode.New(repo, "l0").Backup("f", want[1])
	if err != nil {
		t.Fatal(err)
	}
	want[st2.Version] = want[1]
	if !reflect.DeepEqual(st2.SparseContainers, st.SparseContainers) {
		t.Fatalf("fixture: the twin flags %v sparse, the original %v", st2.SparseContainers, st.SparseContainers)
	}
	if scc, err := gn.CompactSparse("f", st.Version, st.SparseContainers); err != nil || scc.ChunksMoved == 0 {
		t.Fatalf("first compaction: %+v, %v", scc, err)
	}

	rec.reset()
	scc, err := gn.CompactSparse("f", st2.Version, st2.SparseContainers)
	if err != nil {
		t.Fatal(err)
	}
	if scc.ChunksMoved != 0 || scc.BytesMoved != 0 || len(scc.NewContainers) != 0 || scc.SparseContainers != len(st2.SparseContainers) {
		t.Fatalf("compacting the twin moved something: %+v", scc)
	}
	for _, id := range st2.SparseContainers {
		if got := rec.dataGets(id); got != 0 {
			t.Errorf("drained source %s: %d data-object GETs, want none", id, got)
		}
	}
	if ops := rec.recorded(); len(ops) != 0 {
		t.Errorf("a compaction with nothing to move wrote to the store: %v", ops)
	}
	assertRestores(t, repo, want)
}

// padWithDeadChunk rewrites container id with one extra chunk already
// marked deleted, so an in-place rewrite has something to drop (changing
// the layout) without touching any live byte.
func padWithDeadChunk(t *testing.T, repo *core.Repo, id container.ID) {
	t.Helper()
	c, err := repo.Containers.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	junk := genData(777, 3000)
	c.Meta.Chunks = append(c.Meta.Chunks, container.ChunkMeta{
		FP:      repo.Fingerprint(nil, junk),
		Offset:  uint32(len(c.Data)),
		Size:    uint32(len(junk)),
		Deleted: true,
	})
	c.Data = append(append([]byte(nil), c.Data...), junk...)
	if err := repo.Containers.Write(c); err != nil {
		t.Fatal(err)
	}
}

// TestCompactSparseHeldPayloadLayoutMismatch: a source rewritten by
// someone else between SCC's read and SCC's own rewrite no longer matches
// the held payload; the rewrite must notice and read it afresh.
func TestCompactSparseHeldPayloadLayoutMismatch(t *testing.T) {
	for _, workers := range []int{-1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			mem, cfg, want, st := sccBaseline(t)
			rec := newRecStore(mem, 0)
			repo, gn := openOver(t, rec.store, cfg, workers)
			victim := st.SparseContainers[1]
			padWithDeadChunk(t, repo, victim)

			// The SCC record's commit is the first journal put: every source
			// has been read by then, none rewritten yet.
			// (Not a sync.Once: the interloper's own journal commit re-enters
			// the hook.)
			var fired atomic.Bool
			rec.afterPut = func(key string) {
				if !strings.HasPrefix(key, journal.Prefix) || !fired.CompareAndSwap(false, true) {
					return
				}
				m, err := repo.Containers.ReadMeta(victim)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := repo.RewriteContainer(repo.Containers, m, nil); err != nil {
					t.Error(err)
				}
			}
			rec.reset()
			if _, err := gn.CompactSparse("f", st.Version, st.SparseContainers); err != nil {
				t.Fatal(err)
			}
			// Prepare's read, the interloper's, and the fallback.
			if got := rec.dataGets(victim); got != 3 {
				t.Errorf("victim %s: %d data-object GETs, want 3", victim, got)
			}
			if got := rec.dataGets(st.SparseContainers[0]); got != 1 {
				t.Errorf("undisturbed source: %d data-object GETs, want 1", got)
			}
			c, err := repo.Containers.Read(victim) // verifies every live chunk
			if err != nil {
				t.Fatal(err)
			}
			if c.Meta.StaleProportion() != 0 {
				t.Errorf("victim not compacted: stale %.2f", c.Meta.StaleProportion())
			}
			assertRestores(t, repo, want)
			if _, err := gn.FullSweep(); err != nil {
				t.Fatal(err)
			}
			assertRestores(t, repo, want)
		})
	}
}

// TestCompactSparsePostApplyMetaFault: a source whose metadata cannot be
// read after the apply fails the pass (it used to be skipped silently,
// losing the rewrite); a source that is simply gone is still tolerated.
func TestCompactSparsePostApplyMetaFault(t *testing.T) {
	for _, tc := range []struct {
		name    string
		arm     func(faulty *oss.Faulty, repo *core.Repo, id container.ID) error
		wantErr bool
	}{
		{"transient-read-fault", func(faulty *oss.Faulty, repo *core.Repo, id container.ID) error {
			faulty.FailGet(container.MetaKey(id))
			repo.Containers.InvalidateMeta(id)
			return nil
		}, true},
		{"source-gone", func(_ *oss.Faulty, repo *core.Repo, id container.ID) error {
			return repo.Containers.Delete(id)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem, cfg, _, st := sccBaseline(t)
			faulty := oss.NewFaulty(mem)
			rec := newRecStore(faulty, 0)
			repo, gn := openOver(t, rec.store, cfg, 4)
			victim := st.SparseContainers[0]
			// The SCC record's removal is the first journal delete: the
			// apply is complete, the rewrite loop is next.
			var once sync.Once
			rec.afterDelete = func(key string) {
				if !strings.HasPrefix(key, journal.Prefix) {
					return
				}
				once.Do(func() {
					if err := tc.arm(faulty, repo, victim); err != nil {
						t.Error(err)
					}
				})
			}
			_, err := gn.CompactSparse("f", st.Version, st.SparseContainers)
			switch {
			case tc.wantErr && !errors.Is(err, oss.ErrInjected):
				t.Fatalf("CompactSparse error = %v, want the injected read fault", err)
			case !tc.wantErr && err != nil:
				t.Fatal(err)
			}
		})
	}
}

// applyWindow cuts the apply phase out of a recorded run: everything
// after the first journal put (the SCC commit) up to and including the
// removal of that record. With commitSeen already true (a replay, whose
// record was committed by the crashed run) it starts at the beginning.
func applyWindow(ops []storeOp, commitSeen bool) []storeOp {
	var out []storeOp
	var rec string
	for _, op := range ops {
		isJournal := strings.HasPrefix(op.Key, journal.Prefix)
		switch {
		case !commitSeen:
			if isJournal && op.Kind == oss.KindPut {
				commitSeen, rec = true, op.Key
			}
		default:
			out = append(out, op)
			if isJournal && op.Kind == oss.KindDelete && (rec == "" || op.Key == rec) {
				return out
			}
		}
	}
	return out
}

// prefixDump returns every object under prefix.
func prefixDump(t *testing.T, s oss.Store, prefix string) map[string][]byte {
	t.Helper()
	keys, err := s.List(prefix)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		b, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = b
	}
	return out
}

// TestApplySCCDeterministic: the apply writes the same bytes in the same
// order every time — two identical runs agree on every mutation and on
// the index objects, and a journal replay of the same record reproduces
// the apply. (Ranging over the moved map used to shuffle the index puts,
// so WAL and table bytes differed from run to run.)
func TestApplySCCDeterministic(t *testing.T) {
	baseline, cfg, want, st := sccBaseline(t)

	run := func() (*oss.Mem, []storeOp) {
		mem := cloneMem(t, baseline)
		rec := newRecStore(mem, 0)
		_, gn := openOver(t, rec.store, cfg, -1)
		rec.reset()
		if _, err := gn.CompactSparse("f", st.Version, st.SparseContainers); err != nil {
			t.Fatal(err)
		}
		return mem, rec.recorded()
	}
	memA, opsA := run()
	memB, opsB := run()
	if !reflect.DeepEqual(opsA, opsB) {
		t.Fatalf("two identical SCC runs issued different mutations:\n%v\n%v", opsA, opsB)
	}
	gidxA := prefixDump(t, memA, "gidx/")
	if len(gidxA) == 0 {
		t.Fatal("no index objects written; the comparison would be vacuous")
	}
	if !reflect.DeepEqual(gidxA, prefixDump(t, memB, "gidx/")) {
		t.Fatal("index objects differ between two identical SCC runs")
	}

	// Crash right after the commit, then let OpenRepo replay the record.
	memC := cloneMem(t, baseline)
	faulty := oss.NewFaulty(memC)
	recC := newRecStore(faulty, 0)
	var once sync.Once
	recC.afterPut = func(key string) {
		if strings.HasPrefix(key, journal.Prefix) {
			once.Do(func() { faulty.FailPutsAfter(0) })
		}
	}
	_, gnC := openOver(t, recC.store, cfg, -1)
	if _, err := gnC.CompactSparse("f", st.Version, st.SparseContainers); !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("crashed run returned %v", err)
	}
	replay := newRecStore(memC, 0)
	repoC, _ := openOver(t, replay.store, cfg, -1) // replays the journal
	wantApply, gotApply := applyWindow(opsA, false), applyWindow(replay.recorded(), true)
	if len(wantApply) < 4 {
		t.Fatalf("apply window suspiciously short: %v", wantApply)
	}
	if !reflect.DeepEqual(wantApply, gotApply) {
		t.Fatalf("journal replay diverges from the first apply:\nfirst:  %v\nreplay: %v", wantApply, gotApply)
	}
	if !reflect.DeepEqual(gidxA, prefixDump(t, memC, "gidx/")) {
		t.Fatal("index objects after replay differ from the first apply's")
	}
	assertRestores(t, repoC, want)
}
