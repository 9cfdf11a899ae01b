package gnode

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// storeOp is one recorded mutation: the operation, its key, and (for
// puts) the checksum of the bytes written.
type storeOp struct {
	Kind oss.Kind
	Key  string
	Sum  uint32
}

// recStore is a store under a recorder — every mutation in order, the
// byte ranges read of each data object, the reads in flight at once — with
// optional hooks that run after a put or delete has landed.
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

// isDataRead selects the reads of container data objects, whole or ranged.
func isDataRead(op oss.Op) bool {
	return (op.Kind == oss.KindGet || op.Kind == oss.KindGetRange) && dataLane(op.Key) != ""
}

// extent is the byte range [Off, End) of a data object's payload.
type extent struct{ Off, End int64 }

// dataReads returns the ranges of the payload m names that rec saw read, by
// payload offset, whichever of its parts they were read from; a whole GET
// of a part is the part's range.
func dataReads(rec *oss.Recorder, m *container.Meta) []extent {
	var out []extent
	for i, key := range m.DataKeys() {
		start, end := m.PartRange(i)
		for _, q := range rec.Requests(func(op oss.Op) bool { return isDataRead(op) && op.Key == key }) {
			switch {
			case q.Err != nil:
			case q.Kind == oss.KindGet:
				out = append(out, extent{start, end})
			default:
				out = append(out, extent{start + q.Off, start + q.Off + q.N})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Off < out[b].Off })
	return out
}

// payloadBytes returns the part objects of the payload m names, end to end.
func payloadBytes(t *testing.T, mem *oss.Mem, m *container.Meta) []byte {
	t.Helper()
	var out []byte
	for _, k := range m.DataKeys() {
		raw, err := mem.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw...)
	}
	return out
}

// tiles reports whether exts, ordered by offset, cover [0, size) and no
// byte twice.
func tiles(exts []extent, size int64) bool {
	next := int64(0)
	for _, e := range exts {
		if e.Off != next {
			return false
		}
		next = e.End
	}
	return next == size
}

// readBytes is the number of bytes exts fetched.
func readBytes(exts []extent) (n int64) {
	for _, e := range exts {
		n += e.End - e.Off
	}
	return n
}

// payloadMetas returns the meta of every container of repo: what names its
// payload's size and parts.
func payloadMetas(t *testing.T, repo *core.Repo) map[container.ID]*container.Meta {
	t.Helper()
	metas := map[container.ID]*container.Meta{}
	for _, m := range listedMetas(t, repo) {
		metas[m.ID] = m
	}
	return metas
}

// assertRangedAndCut fails unless the pass rec recorded read one of the
// containers in ranges — fewer bytes than its payload, metas naming the
// payloads when the pass began — and, with wantCut, one read in pieces:
// two requests that abut, which the planner's spans never do, somewhere
// other than where a part of the payload ends (the parts of a payload read
// whole abut there). A test that means to run the planned reads must not
// pass on one GET per source, nor per part.
func assertRangedAndCut(t *testing.T, rec *oss.Recorder, metas map[container.ID]*container.Meta, wantCut bool) {
	t.Helper()
	ranged, cut := 0, 0
	for _, m := range metas {
		reads := dataReads(rec, m)
		if len(reads) > 0 && readBytes(reads) < int64(m.DataSize) {
			ranged++
		}
		for i := 1; i < len(reads); i++ {
			if at := reads[i].Off; reads[i-1].End == at && !slices.Contains(m.Parts, uint32(at)) {
				cut++
				break
			}
		}
	}
	if ranged == 0 || wantCut && cut == 0 {
		t.Errorf("%d containers read in ranges, %d in pieces: the fixture no longer exercises the planned reads", ranged, cut)
	}
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
	repo := mustOpen(t, frozen(t, store), cfg)
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

// TestCompactSparseReadsEachSourceOnce: a compaction reads what it moves,
// once. A source it rewrites is read whole and only once across prepare
// and rewrite — the ranges fetched tile its payload, no byte twice: the
// rewrite reuses what the prepare verified; a source that stays is read
// only where the needed chunks lie, give or take a coalescing gap per
// request; and the whole pass keeps between two and MaintWorkers data
// requests in flight. Under the default costs every source of the plain
// fixture is rewritten from one GET; the ranged fixture has both kinds.
func TestCompactSparseReadsEachSourceOnce(t *testing.T) {
	for _, ranged := range []bool{false, true} {
		t.Run(fmt.Sprintf("ranged=%v", ranged), func(t *testing.T) {
			mem, cfg, want, st := sccFixture(t, ranged)
			rec := newRecStore(mem, 2*time.Millisecond)
			repo, gn := openOver(t, rec.store, cfg, 4)
			n := len(st.SparseContainers)
			if n < 4 {
				t.Fatalf("only %d sparse sources; the overlap check would be vacuous", n)
			}
			before := payloadMetas(t, repo)
			needed := map[container.ID]int64{} // bytes v1 references, per source
			r, err := repo.Recipes.GetRecipe("f", st.Version)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[fingerprint.FP]bool{}
			r.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
				if !seen[cr.FP] {
					seen[cr.FP] = true
					needed[cr.Container] += int64(cr.Size)
				}
				return true
			})

			rec.reset()
			scc, err := gn.CompactSparse("f", st.Version, st.SparseContainers)
			if err != nil {
				t.Fatal(err)
			}
			if scc.ChunksMoved == 0 {
				t.Fatalf("nothing moved: %+v", scc)
			}
			gap := int64(cfg.Costs.OSSRequestLatency.Seconds() * cfg.Costs.OSSReadBandwidth)
			rewritten, sparseStays := 0, 0
			for _, id := range st.SparseContainers {
				m, err := repo.Containers.ReadMeta(id)
				if err != nil {
					t.Fatal(err)
				}
				reads, size := dataReads(&rec.rec, before[id]), int64(before[id].DataSize)
				if int64(m.DataSize) < size {
					rewritten++
					if m.StaleProportion() != 0 || !tiles(reads, size) {
						t.Errorf("rewritten source %s (stale %.2f now): read %v, want [0,%d) once", id, m.StaleProportion(), reads, size)
					}
					continue
				}
				if ranged && needed[id]*10 <= size {
					sparseStays++
					if got := readBytes(reads); got*4 >= size {
						t.Errorf("source %s, used to a tenth: read %d of %d bytes, want under a quarter", id, got, size)
					}
				}
				if got, most := readBytes(reads), needed[id]+int64(len(reads))*gap; got > most {
					t.Errorf("source %s stays: read %d bytes in %d requests, want at most the %d needed and a %d-byte gap each", id, got, len(reads), needed[id], gap)
				}
			}
			if !ranged && rewritten != n {
				t.Errorf("%d of %d sources rewritten, want all", rewritten, n)
			}
			if ranged {
				if rewritten == 0 || sparseStays == 0 {
					t.Errorf("%d sources rewritten, %d used to a tenth or less and staying: the fixture wants both", rewritten, sparseStays)
				}
				assertRangedAndCut(t, &rec.rec, before, true)
			}
			if _, peak := rec.rec.InFlight(isDataRead); peak < 2 || peak > 4 {
				t.Errorf("%d data requests in flight at most, want 2..4 (MaintWorkers is 4)", peak)
			}
			assertRestores(t, repo, want)
		})
	}
}

// TestCompactSparseSkipsDrainedSources: a version whose recipe still names
// sparse sources that an earlier compaction already drained of everything
// it needs — here v2, a byte-identical twin of v1, compacted after v1 — is
// compacted without fetching a byte of those sources' data objects, whole
// or in ranges: the metadata says nothing needed is live. Nothing moves, nothing is written,
// and every version still restores.
func TestCompactSparseSkipsDrainedSources(t *testing.T) {
	mem, cfg, want, st := sccFixture(t, false)
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
		m, err := repo.Containers.ReadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := dataReads(&rec.rec, m); len(got) != 0 {
			t.Errorf("drained source %s: read %v, want no read of either kind", id, got)
		}
	}
	if ops := rec.recorded(); len(ops) != 0 {
		t.Errorf("a compaction with nothing to move wrote to the store: %v", ops)
	}
	assertRestores(t, repo, want)
}

// TestCompactSparseVerifiesWhatItMoves is the no-laundering rule for
// planned reads: SCC verifies every chunk it copies into a new container
// and every chunk a rewrite will re-checksum, and nothing else. A flipped
// bit in a chunk the version needs from a source that stays, or in any
// live chunk of a source about to be rewritten, fails the pass before its
// index commit with the container and chunk named, having written
// nothing but unreferenced destination containers; a flipped bit in a
// live chunk the version does not need, in a source that stays, is not
// read — the pass succeeds, the source's data object is untouched, and
// the rot is still there for Scrub to find.
func TestCompactSparseVerifiesWhatItMoves(t *testing.T) {
	baseline, cfg, _, st := sccFixture(t, true)
	probe := mustOpen(t, baseline.Clone(), cfg)
	r, err := probe.Recipes.GetRecipe("f", st.Version)
	if err != nil {
		t.Fatal(err)
	}
	needs := map[fingerprint.FP]bool{}
	r.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
		needs[cr.FP] = true
		return true
	})
	// pick returns the source with the most (rewritten) or fewest (stays)
	// needed chunks and the last chunk of it that is, or is not, needed.
	pick := func(rewritten, needed bool) (container.ID, fingerprint.FP) {
		var best *container.Meta
		bestN := 0
		for _, id := range st.SparseContainers {
			m, err := probe.Containers.ReadMeta(id)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for i := range m.Chunks {
				if needs[m.Chunks[i].FP] {
					n++
				}
			}
			if best == nil || rewritten && n > bestN || !rewritten && n < bestN {
				best, bestN = m, n
			}
		}
		for i := len(best.Chunks) - 1; i >= 0; i-- {
			if needs[best.Chunks[i].FP] == needed {
				return best.ID, best.Chunks[i].FP
			}
		}
		t.Fatalf("source %s has no chunk with needed=%v", best.ID, needed)
		return 0, fingerprint.FP{}
	}

	for _, tc := range []struct {
		name              string
		rewritten, needed bool
		fails             bool
	}{
		{"needed-chunk-of-a-source-that-stays", false, true, true},
		{"surviving-chunk-of-a-source-to-rewrite", true, false, true},
		{"unneeded-chunk-of-a-source-that-stays", false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id, fp := pick(tc.rewritten, tc.needed)
			mem := baseline.Clone()
			rec := newRecStore(mem, 0)
			repo, gn := openOver(t, rec.store, cfg, 4)
			flipChunkAtRest(t, mem, repo, id, fp)
			existed := payloadMetas(t, repo)
			rotten := payloadBytes(t, mem, existed[id])
			rec.reset()

			_, err = gn.CompactSparse("f", st.Version, st.SparseContainers)
			if !tc.fails {
				if err != nil {
					t.Fatalf("rot in a chunk the pass has no business reading failed it: %v", err)
				}
				if after := payloadBytes(t, mem, existed[id]); !bytes.Equal(after, rotten) {
					t.Fatal("the source that stays was rewritten")
				}
				scrub, err := gn.Scrub()
				if err != nil {
					t.Fatal(err)
				}
				if scrub.CorruptChunks != 1 {
					t.Fatalf("scrub after the pass: %+v, want the one rotten chunk found", scrub)
				}
				return
			}
			var ce *container.CorruptError
			if !errors.As(err, &ce) || ce.Container != id || ce.FP != fp {
				t.Fatalf("CompactSparse error = %v, want a CorruptError naming %s chunk %s", err, id, fp.Short())
			}
			old := map[string]bool{}
			for id, m := range existed {
				old[container.MetaKey(id)] = true
				for _, k := range m.DataKeys() {
					old[k] = true
				}
			}
			for _, op := range rec.recorded() {
				if op.Kind != oss.KindPut || !strings.HasPrefix(op.Key, container.Prefix) || old[op.Key] {
					t.Errorf("a pass that failed on rot wrote %s %s", op.Kind, op.Key)
				}
			}
		})
	}
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
	data := make([]byte, c.Meta.DataSize, int(c.Meta.DataSize)+len(junk)) // the payload, from its parts
	for i := range c.Meta.Chunks {
		cm := &c.Meta.Chunks[i]
		b, err := c.ChunkData(cm)
		if err != nil {
			t.Fatal(err)
		}
		copy(data[cm.Offset:], b)
	}
	c.Meta.Chunks = append(c.Meta.Chunks, container.ChunkMeta{
		FP:      repo.Fingerprint(nil, junk),
		Offset:  c.Meta.DataSize,
		Size:    uint32(len(junk)),
		Deleted: true,
	})
	if err := repo.Containers.Write(&container.Container{Meta: c.Meta, Data: append(data, junk...)}); err != nil {
		t.Fatal(err)
	}
}

// TestCompactSparseHeldPayloadLayoutMismatch: a source rewritten by
// someone else between SCC's read and SCC's switch no longer names the
// payload SCC compacted; the switch must notice, drop that payload, mark the
// source's current meta and rewrite it from a fresh read.
func TestCompactSparseHeldPayloadLayoutMismatch(t *testing.T) {
	for _, ranged := range []bool{false, true} {
		for _, workers := range []int{-1, 4} {
			t.Run(variantName(testConfig(), workers, ranged), func(t *testing.T) {
				mem, cfg, want, st := sccFixture(t, ranged)
				rec := newRecStore(mem, 0)
				repo, gn := openOver(t, rec.store, cfg, workers)
				victim := st.SparseContainers[1]
				padWithDeadChunk(t, repo, victim)
				sizes := payloadMetas(t, repo)

				// The first catalog put opens the compaction's commit: every
				// source has been read and its rewrite put by then, none
				// marked or switched yet.
				// (Not a sync.Once: the interloper's own puts re-enter the hook.)
				var fired atomic.Bool
				var rewrote int64         // the victim's payload once the interloper is done
				var moved *container.Meta // the victim as the interloper left it
				rec.afterPut = func(key string) {
					if !strings.HasPrefix(key, "catalog/") || !fired.CompareAndSwap(false, true) {
						return
					}
					m, err := repo.Containers.ReadMeta(victim)
					if err != nil {
						t.Error(err)
						return
					}
					freed, err := repo.RewriteContainer(repo.Containers, m, nil, repo.Containers.AllocateID())
					if err != nil {
						t.Error(err)
					}
					if moved, err = repo.Containers.ReadMeta(victim); err != nil {
						t.Error(err)
					}
					rewrote = int64(m.DataSize) - freed
				}
				rec.reset()
				if _, err := gn.CompactSparse("f", st.Version, st.SparseContainers); err != nil {
					t.Fatal(err)
				}
				// Prepare's read and the interloper's, then the fallback's of
				// what the interloper left.
				if moved == nil {
					t.Fatal("the interloper never rewrote the victim")
				}
				if got, want := readBytes(dataReads(&rec.rec, sizes[victim]))+readBytes(dataReads(&rec.rec, moved)), 2*int64(sizes[victim].DataSize)+rewrote; got != want || rewrote == 0 {
					t.Errorf("victim %s: %d payload bytes read, want %d twice and %d once", victim, got, sizes[victim].DataSize, rewrote)
				}
				if other := sizes[st.SparseContainers[0]]; !tiles(dataReads(&rec.rec, other), int64(other.DataSize)) {
					t.Errorf("undisturbed source: read %v, want [0,%d) once", dataReads(&rec.rec, other), other.DataSize)
				}
				if ranged {
					assertRangedAndCut(t, &rec.rec, sizes, workers > 1)
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
}

// TestCompactSparsePostApplyMetaFault: a source whose metadata cannot be
// read after the commit fails the pass (it used to be skipped silently,
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
			mem, cfg, _, st := sccFixture(t, false)
			faulty := oss.NewFaulty(mem)
			rec := newRecStore(faulty, 0)
			repo, gn := openOver(t, rec.store, cfg, 4)
			victim := st.SparseContainers[0]
			// The first catalog put opens the compaction's commit: the
			// sources' switches and marks are the next to read their metas.
			var once sync.Once
			rec.afterPut = func(key string) {
				if !strings.HasPrefix(key, "catalog/") {
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

// TestApplySCCDeterministic: the commit writes the same bytes every time —
// two identical runs issue the same mutations, in the same order at width
// −1, and leave the same store, index objects included. (Ranging over the
// moved map used to shuffle the index puts, so WAL and table bytes differed
// from run to run.) At width 4 the order of the puts side by side is the
// scheduler's; what they are, and the store they leave, are not.
func TestApplySCCDeterministic(t *testing.T) {
	baseline, cfg, _, st := sccFixture(t, false)

	run := func(workers int) (*oss.Mem, []storeOp) {
		mem := baseline.Clone()
		rec := newRecStore(mem, 0)
		_, gn := openOver(t, rec.store, cfg, workers)
		rec.reset()
		if _, err := gn.CompactSparse("f", st.Version, st.SparseContainers); err != nil {
			t.Fatal(err)
		}
		return mem, rec.recorded()
	}
	for _, workers := range []int{-1, 4} {
		memA, opsA := run(workers)
		memB, opsB := run(workers)
		if workers > 1 {
			for _, ops := range [][]storeOp{opsA, opsB} {
				sort.Slice(ops, func(i, j int) bool { return fmt.Sprint(ops[i]) < fmt.Sprint(ops[j]) })
			}
		}
		if !reflect.DeepEqual(opsA, opsB) {
			t.Fatalf("width %d: two identical SCC runs issued different mutations:\n%v\n%v", workers, opsA, opsB)
		}
		if len(prefixDump(t, memA, "gidx/")) == 0 {
			t.Fatal("no index objects written; the comparison would be vacuous")
		}
		if !reflect.DeepEqual(prefixDump(t, memA, ""), prefixDump(t, memB, "")) {
			t.Fatalf("width %d: the stores differ between two identical SCC runs", workers)
		}
	}
}

// TestCompactSparseOverlapsRewrites pins where a compaction's rewrites go:
// once the reads are done every mark is known, so the rewritten sources'
// payloads are put beside the last new container's, before the commit,
// and each source's meta is put once, in the commit — its marks, or the
// switch that carries them. No clock decides: the barrier holds those
// payload puts until all of them wait together, which a pass that put the
// rewrites after its commit never reaches. Width 4 on the ranged fixture:
// three sources rewritten, two that stay.
func TestCompactSparseOverlapsRewrites(t *testing.T) {
	baseline, cfg, want, st := sccFixture(t, true)
	// A run on a copy names the payloads: IDs are drawn in the same order at
	// any width, so the measured run puts the same keys.
	dry, gn := openOver(t, baseline.Clone(), cfg, 4)
	scc, err := gn.CompactSparse("f", st.Version, st.SparseContainers)
	if err != nil {
		t.Fatal(err)
	}
	together := map[string]bool{container.DataKey(slices.Max(scc.NewContainers)): true}
	rewritten := map[container.ID]bool{}
	for _, id := range st.SparseContainers {
		if m, err := dry.Containers.ReadMeta(id); err == nil && m.Payload != id {
			together[container.DataKey(m.Payload)], rewritten[id] = true, true
		}
	}
	if len(rewritten) < 2 || len(rewritten) == len(st.SparseContainers) || len(together) > 4 {
		t.Fatalf("%d of %d sources rewritten, %d payloads to put together at width 4: the fixture wants some of each and at most 4",
			len(rewritten), len(st.SparseContainers), len(together))
	}

	var rec oss.Recorder
	bar := oss.Barrier{Timeout: 5 * time.Second}
	repo, gn := openOver(t, oss.With(baseline.Clone(), &rec, &bar), cfg, 4)
	bar.Expect(func(op oss.Op) bool { return op.Kind == oss.KindPut && together[op.Key] }, len(together))
	if _, err := gn.CompactSparse("f", st.Version, st.SparseContainers); err != nil {
		t.Fatal(err)
	}
	if err := bar.Err(); err != nil {
		t.Errorf("the new container's and the rewrites' payload puts were not in flight together: %v", err)
	}
	for _, id := range st.SparseContainers {
		puts := rec.Requests(func(op oss.Op) bool { return op.Kind == oss.KindPut && op.Key == container.MetaKey(id) })
		if len(puts) != 1 {
			t.Errorf("source %s (rewritten %v): meta put %d times, want once", id, rewritten[id], len(puts))
		}
	}
	assertRestores(t, repo, want)
}
