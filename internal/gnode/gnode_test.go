package gnode

import (
	"bytes"
	"math/rand"
	"testing"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 128 << 10
	cfg.SegmentChunks = 64
	cfg.SampleRatio = 8
	cfg.ChunkMerging = false
	cfg.CacheMemBytes = 16 << 20
	cfg.CacheDiskBytes = 64 << 20
	cfg.LAWChunks = 256
	cfg.PrefetchThreads = 0
	return cfg
}

func setup(t *testing.T, cfg core.Config) (*lnode.LNode, *GNode, *core.Repo, *oss.Mem) {
	t.Helper()
	mem := oss.NewMem()
	repo := mustOpen(t, frozen(t, mem), cfg)
	return lnode.New(repo, "l0"), New(repo), repo, mem
}

// mustOpen opens the repository on s, failing t if it does not open.
func mustOpen(t *testing.T, s oss.Store, cfg core.Config) *core.Repo {
	t.Helper()
	repo, err := core.OpenRepo(s, cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return repo
}

// frozen puts oss.Frozen between a test's repo and its store and checks it
// when the test ends: whatever the passes, restores and caches of the test
// fetched, none of them wrote through it. Every gnode test that opens its
// repo through setup or openOver runs under it.
func frozen(t *testing.T, s oss.Store) oss.Store {
	f := oss.NewFrozen(s)
	t.Cleanup(func() {
		if err := f.Check(); err != nil {
			t.Error(err)
		}
	})
	return f
}

func genData(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func restoreBytes(t *testing.T, n *lnode.LNode, fileID string, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := n.Restore(fileID, version, &buf); err != nil {
		t.Fatalf("restore %s v%d: %v", fileID, version, err)
	}
	return buf.Bytes()
}

func TestReverseDedupFindsMissedDuplicates(t *testing.T) {
	cfg := testConfig()
	cfg.SimilarityMinScore = 1.1 // force the L-node to miss cross-file dups
	ln, gn, _, _ := setup(t, cfg)

	shared := genData(1, 1<<20)
	stA, err := ln.Backup("a", shared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gn.ReverseDedup(stA.NewContainers); err != nil {
		t.Fatal(err)
	}

	stB, err := ln.Backup("b", shared)
	if err != nil {
		t.Fatal(err)
	}
	if stB.DuplicateBytes != 0 {
		t.Fatalf("L-node should have missed the duplicates, found %d bytes", stB.DuplicateBytes)
	}
	rd, err := gn.ReverseDedup(stB.NewContainers)
	if err != nil {
		t.Fatal(err)
	}
	if rd.DuplicatesRemoved == 0 {
		t.Fatalf("reverse dedup found nothing: %+v", rd)
	}
	if rd.BytesDeduplicated < int64(len(shared))/2 {
		t.Fatalf("reverse dedup reclaimed only %d of %d bytes", rd.BytesDeduplicated, len(shared))
	}
	// Old containers (file a's) crossed the stale threshold: rewritten.
	if rd.ContainersRewritten == 0 || rd.BytesReclaimed == 0 {
		t.Fatalf("no physical rewrite happened: %+v", rd)
	}

	// Both files restore byte-identically — a's reads follow redirects.
	if !bytes.Equal(restoreBytes(t, ln, "a", 0), shared) {
		t.Fatal("file a corrupt after reverse dedup")
	}
	if !bytes.Equal(restoreBytes(t, ln, "b", 0), shared) {
		t.Fatal("file b corrupt after reverse dedup")
	}
	var buf bytes.Buffer
	rs, err := ln.Restore("a", 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Redirects == 0 {
		t.Fatal("old version restored without redirects — reverse dedup had no effect?")
	}
}

// TestReverseDedupOverStaleIndexEntry: a drop's index deletes are not
// synced before its objects go, so a crash brings back entries naming a
// container that no longer exists. A pass that meets one for a chunk it
// scans has nothing to mark in the old home and repoints; it used to fail,
// and with it every later optimize of a version holding that chunk.
func TestReverseDedupOverStaleIndexEntry(t *testing.T) {
	cfg := testConfig()
	cfg.SimilarityMinScore = 1.1 // force the L-node to miss cross-file dups
	ln, gn, repo, _ := setup(t, cfg)
	shared := genData(1, 512<<10)
	stA, err := ln.Backup("a", shared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gn.ReverseDedup(stA.NewContainers); err != nil {
		t.Fatal(err)
	}
	for _, id := range stA.NewContainers { // dropped; the index deletes were lost
		if err := repo.Containers.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	stB, err := ln.Backup("b", shared)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := gn.ReverseDedup(stB.NewContainers)
	if err != nil {
		t.Fatalf("reverse dedup over stale index entries: %v", err)
	}
	if rd.DuplicatesRemoved != 0 {
		t.Fatalf("removed duplicates of containers that are gone: %+v", rd)
	}
	if !bytes.Equal(restoreBytes(t, ln, "b", 0), shared) {
		t.Fatal("file b corrupt after reverse dedup")
	}
	if id, ok, err := repo.Global.Get(mustFirstFP(t, repo, stB.NewContainers[0])); err != nil || !ok || id != stB.NewContainers[0] {
		t.Fatalf("index not repointed at the surviving copy: %v %v %v", id, ok, err)
	}
}

func mustFirstFP(t *testing.T, repo *core.Repo, id container.ID) fingerprint.FP {
	t.Helper()
	m, err := repo.Containers.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	return m.Chunks[0].FP
}

func TestReverseDedupIdempotent(t *testing.T) {
	cfg := testConfig()
	ln, gn, _, _ := setup(t, cfg)
	st, err := ln.Backup("f", genData(2, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := gn.ReverseDedup(st.NewContainers)
	if err != nil {
		t.Fatal(err)
	}
	if r1.IndexInserts == 0 {
		t.Fatal("first pass registered nothing")
	}
	r2, err := gn.ReverseDedup(st.NewContainers)
	if err != nil {
		t.Fatal(err)
	}
	if r2.DuplicatesRemoved != 0 || r2.IndexInserts != 0 {
		t.Fatalf("second pass was not a no-op: %+v", r2)
	}
}

// sparseScenario backs up v0 and a v1 that keeps only a thin slice of v0's
// content, so v0's containers become sparse from v1's point of view.
func sparseScenario(t *testing.T, cfg core.Config) (*lnode.LNode, *GNode, []byte, []byte, *lnode.BackupStats) {
	t.Helper()
	ln, gn, _, _ := setup(t, cfg)
	v0 := genData(3, 2<<20)
	st0, err := ln.Backup("f", v0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gn.ReverseDedup(st0.NewContainers); err != nil {
		t.Fatal(err)
	}
	// v1: mostly new data, with small slices of v0 scattered through it.
	// Slices are large enough (32 KiB) for CDC to resynchronise inside
	// them, so a few interior chunks dedup against each of v0's
	// containers — exactly the sparse-container pattern of §V-B.
	var v1 bytes.Buffer
	fresh := genData(4, 2<<20)
	const step = 128 << 10
	const slice = 32 << 10
	i := 0
	for off := 0; off+step <= len(fresh); off += step {
		v1.Write(fresh[off : off+step])
		src := (i * step) % (len(v0) - slice)
		v1.Write(v0[src : src+slice])
		i++
	}
	st1, err := ln.Backup("f", v1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gn.ReverseDedup(st1.NewContainers); err != nil {
		t.Fatal(err)
	}
	return ln, gn, v0, v1.Bytes(), st1
}

func TestSparseContainerCompaction(t *testing.T) {
	ln, gn, v0, v1, st1 := sparseScenario(t, testConfig())
	if len(st1.SparseContainers) == 0 {
		t.Fatal("no sparse containers detected in the sparse scenario")
	}

	// Read amplification before compaction.
	var buf bytes.Buffer
	before, err := ln.Restore("f", 1, &buf)
	if err != nil {
		t.Fatal(err)
	}

	scc, err := gn.CompactSparse("f", 1, st1.SparseContainers)
	if err != nil {
		t.Fatal(err)
	}
	if scc.ChunksMoved == 0 || len(scc.NewContainers) == 0 {
		t.Fatalf("compaction moved nothing: %+v", scc)
	}

	buf.Reset()
	after, err := ln.Restore("f", 1, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v1) {
		t.Fatal("v1 corrupt after SCC")
	}
	if after.Cache.ContainersRead >= before.Cache.ContainersRead {
		t.Fatalf("SCC did not reduce container reads: %d -> %d",
			before.Cache.ContainersRead, after.Cache.ContainersRead)
	}

	// The old version still restores via global-index redirects.
	if !bytes.Equal(restoreBytes(t, ln, "f", 0), v0) {
		t.Fatal("v0 corrupt after SCC")
	}
}

func TestSCCNoSparse(t *testing.T) {
	_, gn, _, _, _ := func() (*lnode.LNode, *GNode, *core.Repo, *oss.Mem, int) {
		ln, gn, repo, mem := setup(t, testConfig())
		if _, err := ln.Backup("f", genData(5, 512<<10)); err != nil {
			t.Fatal(err)
		}
		return ln, gn, repo, mem, 0
	}()
	st, err := gn.CompactSparse("f", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksMoved != 0 {
		t.Fatalf("compaction with no sparse containers moved chunks: %+v", st)
	}
}

func TestVersionCollection(t *testing.T) {
	cfg := testConfig()
	ln, gn, repo, mem := setup(t, cfg)

	// Three versions with substantial drift so old containers become
	// garbage candidates.
	var datas [][]byte
	d := genData(6, 1<<20)
	for v := 0; v < 3; v++ {
		datas = append(datas, d)
		st, err := ln.Backup("f", d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gn.ReverseDedup(st.NewContainers); err != nil {
			t.Fatal(err)
		}
		// Next version: replace the first half entirely.
		nd := append([]byte{}, d...)
		copy(nd[:len(nd)/2], genData(int64(100+v), len(nd)/2))
		d = nd
	}

	sizeBefore := mem.BytesWithPrefix("containers/")
	gc, err := gn.DeleteVersion("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if gc.GarbageCandidates == 0 || gc.ContainersCollected == 0 {
		t.Fatalf("nothing collected: %+v", gc)
	}
	sizeAfter := mem.BytesWithPrefix("containers/")
	if sizeAfter >= sizeBefore {
		t.Fatalf("container space did not shrink: %d -> %d", sizeBefore, sizeAfter)
	}

	// Catalog and indexes no longer list v0.
	if vs, _ := repo.Recipes.Versions("f"); len(vs) != 2 || vs[0] != 1 {
		t.Fatalf("versions after delete = %v", vs)
	}
	if got, err := repo.SimIndex.Stored(); len(got) != 2 || err != nil {
		t.Fatalf("simindex versions after delete = %+v, %v", got, err)
	}

	// Remaining versions still restore byte-identically.
	for v := 1; v < 3; v++ {
		if !bytes.Equal(restoreBytes(t, ln, "f", v), datas[v]) {
			t.Fatalf("version %d corrupt after GC", v)
		}
	}
}

func TestDeleteOutOfOrderKeepsSharedContainers(t *testing.T) {
	cfg := testConfig()
	ln, gn, _, _ := setup(t, cfg)
	base := genData(7, 1<<20)
	for v := 0; v < 3; v++ {
		d := append([]byte{}, base...)
		copy(d[:64], genData(int64(200+v), 64))
		if _, err := ln.Backup("f", d); err != nil {
			t.Fatal(err)
		}
	}
	// Delete the middle version: its containers are shared with v0/v2 and
	// must survive the sweep's live check.
	if _, err := gn.DeleteVersion("f", 1); err != nil {
		t.Fatal(err)
	}
	d0 := append([]byte{}, base...)
	copy(d0[:64], genData(200, 64))
	if !bytes.Equal(restoreBytes(t, ln, "f", 0), d0) {
		t.Fatal("v0 corrupt after deleting v1")
	}
	d2 := append([]byte{}, base...)
	copy(d2[:64], genData(202, 64))
	if !bytes.Equal(restoreBytes(t, ln, "f", 2), d2) {
		t.Fatal("v2 corrupt after deleting v1")
	}
}

func TestFullSweep(t *testing.T) {
	cfg := testConfig()
	ln, gn, repo, _ := setup(t, cfg)
	st, err := ln.Backup("f", genData(8, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gn.ReverseDedup(st.NewContainers); err != nil {
		t.Fatal(err)
	}

	// Nothing should be swept on a healthy repo.
	audit, err := gn.FullSweep()
	if err != nil {
		t.Fatal(err)
	}
	if audit.ContainersSwept != 0 {
		t.Fatalf("healthy repo lost %d containers to FullSweep", audit.ContainersSwept)
	}

	// Orphan a container (simulated crash between container write and
	// recipe write) and verify the audit reclaims it.
	cs := repo.Containers
	orphan := genData(9, 4096)
	oc := &container.Container{
		Meta: container.Meta{ID: cs.AllocateID(), DataSize: uint32(len(orphan))},
		Data: orphan,
	}
	oc.Meta.Chunks = []container.ChunkMeta{{
		FP: fingerprint.OfBytes(orphan), Offset: 0, Size: uint32(len(orphan)),
	}}
	if err := cs.Write(oc); err != nil {
		t.Fatal(err)
	}
	audit, err = gn.FullSweep()
	if err != nil {
		t.Fatal(err)
	}
	if audit.ContainersSwept != 1 {
		t.Fatalf("audit swept %d containers, want 1", audit.ContainersSwept)
	}
	if !bytes.Equal(restoreBytes(t, ln, "f", 0), genData(8, 1<<20)) {
		t.Fatal("file corrupt after FullSweep")
	}
}

func TestSCCIdempotent(t *testing.T) {
	ln, gn, _, v1, st1 := sparseScenario(t, testConfig())
	_ = v1
	if len(st1.SparseContainers) == 0 {
		t.Skip("no sparse containers at this scale")
	}
	first, err := gn.CompactSparse("f", 1, st1.SparseContainers)
	if err != nil {
		t.Fatal(err)
	}
	// Re-running the same compaction must move nothing further.
	second, err := gn.CompactSparse("f", 1, st1.SparseContainers)
	if err != nil {
		t.Fatal(err)
	}
	if second.ChunksMoved != 0 {
		t.Fatalf("second SCC pass moved %d chunks (first: %d)", second.ChunksMoved, first.ChunksMoved)
	}
	if !bytes.Equal(restoreBytes(t, ln, "f", 1), v1) {
		t.Fatal("v1 corrupt after repeated SCC")
	}
}

func TestReverseDedupRewriteThreshold(t *testing.T) {
	// A container is rewritten only once more than rewriteStale (the paper's
	// 20 %) of its chunks are stale. b repeats 16 KiB of every 128 KiB of a
	// and is fresh elsewhere, so reverse dedup leaves each of a's containers
	// stale, under the threshold: the duplicates are only marked, physical
	// space stays put while the metadata records the logical reclamation.
	cfg := testConfig()
	cfg.SimilarityMinScore = 1.1
	ln, gn, repo, mem := setup(t, cfg)

	dataA := genData(95, 1<<20)
	stA, err := ln.Backup("a", dataA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gn.ReverseDedup(stA.NewContainers); err != nil {
		t.Fatal(err)
	}
	before := mem.BytesWithPrefix("containers/")
	dataB := genData(96, len(dataA))
	for off := 0; off+(128<<10) <= len(dataB); off += 128 << 10 {
		copy(dataB[off:off+(16<<10)], dataA[off:off+(16<<10)])
	}
	stB, err := ln.Backup("b", dataB)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := gn.ReverseDedup(stB.NewContainers)
	if err != nil {
		t.Fatal(err)
	}
	if rd.DuplicatesRemoved == 0 {
		t.Fatal("no duplicates found")
	}
	if rd.ContainersRewritten != 0 {
		t.Fatalf("rewrites happened under the %.0f %% threshold: %+v", 100*rewriteStale, rd)
	}
	stale := 0
	for _, id := range stA.NewContainers {
		m, err := repo.Containers.ReadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		if p := m.StaleProportion(); p > rewriteStale {
			t.Fatalf("fixture: %s is %.2f stale, past the threshold", id, p)
		} else if p > 0 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("fixture: no container of a was marked")
	}
	// Physical space grew by b's copy (marks only, no rewrite).
	after := mem.BytesWithPrefix("containers/")
	if after <= before {
		t.Fatalf("expected space growth without rewrites: %d -> %d", before, after)
	}
	// Both restore correctly regardless.
	if !bytes.Equal(restoreBytes(t, ln, "a", 0), dataA) ||
		!bytes.Equal(restoreBytes(t, ln, "b", 0), dataB) {
		t.Fatal("restore corrupt under mark-only reverse dedup")
	}
}

func TestDeleteVersionMissing(t *testing.T) {
	_, gn, _, _ := setup(t, testConfig())
	if _, err := gn.DeleteVersion("ghost", 3); err == nil {
		t.Fatal("deleting a missing version did not error")
	}
}
