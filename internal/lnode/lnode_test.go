package lnode

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// testConfig returns a small-scale config suitable for MB-sized test files.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 256 << 10
	cfg.SegmentChunks = 64
	cfg.SampleRatio = 8
	cfg.MaxSuperChunkBytes = 64 << 10
	cfg.CacheMemBytes = 16 << 20
	cfg.CacheDiskBytes = 64 << 20
	cfg.LAWChunks = 256
	cfg.PrefetchThreads = 2
	return cfg
}

// allRecords returns r's chunk records in logical order.
func allRecords(r *recipe.Recipe) []*recipe.ChunkRecord {
	recs, _ := windowRecords(r, 0, r.LogicalBytes())
	return recs
}

// newNode opens a node over an in-memory store behind oss.Frozen, checked
// when the test ends: whatever the test's backups, restores and caches
// fetched — under every policy, prefetched or ranged — nothing wrote
// through it.
func newNode(t *testing.T, cfg core.Config) (*LNode, *core.Repo) {
	t.Helper()
	store := oss.NewFrozen(oss.NewMem())
	t.Cleanup(func() {
		if err := store.Check(); err != nil {
			t.Error(err)
		}
	})
	repo, err := core.OpenRepo(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(repo, "l0"), repo
}

// mutate produces the next version of data: overwrite some ranges, insert
// and delete a little, keeping dupRatio of the bytes unchanged.
func mutate(data []byte, seed int64, changes int) []byte {
	r := rand.New(rand.NewSource(seed))
	out := append([]byte{}, data...)
	for i := 0; i < changes; i++ {
		switch r.Intn(3) {
		case 0: // overwrite a range
			if len(out) < 100 {
				break
			}
			off := r.Intn(len(out) - 64)
			n := 32 + r.Intn(64)
			if off+n > len(out) {
				n = len(out) - off
			}
			r.Read(out[off : off+n])
		case 1: // insert
			off := r.Intn(len(out))
			ins := make([]byte, 16+r.Intn(128))
			r.Read(ins)
			out = append(out, ins...)
			copy(out[off+len(ins):], out[off:])
			copy(out[off:], ins)
		case 2: // delete
			if len(out) < 2000 {
				break
			}
			off := r.Intn(len(out) - 1000)
			n := 16 + r.Intn(256)
			out = append(out[:off], out[off+n:]...)
		}
	}
	return out
}

func genData(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

func restoreBytes(t *testing.T, n *LNode, fileID string, version int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := n.Restore(fileID, version, &buf); err != nil {
		t.Fatalf("restore %s v%d: %v", fileID, version, err)
	}
	return buf.Bytes()
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

// restoreMatches restores fileID's version into a writer that compares the
// stream with want as it arrives, and fails at the first difference.
func restoreMatches(n *LNode, fileID string, version int, want []byte) error {
	rest := oss.SameBytes(want)
	if _, err := n.Restore(fileID, version, &rest); err != nil || len(rest) == 0 {
		return err
	}
	return fmt.Errorf("restored %d bytes short", len(rest))
}

func TestBackupRestoreRoundTrip(t *testing.T) {
	n, _ := newNode(t, testConfig())
	data := genData(1, 4<<20)
	st, err := n.Backup("db/file1", data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 0 || st.BaseBy != "none" {
		t.Fatalf("first backup stats: %+v", st)
	}
	if st.LogicalBytes != int64(len(data)) {
		t.Fatalf("LogicalBytes = %d", st.LogicalBytes)
	}
	if st.DuplicateBytes != 0 {
		t.Fatalf("first version should have no duplicates, got %d", st.DuplicateBytes)
	}
	got := restoreBytes(t, n, "db/file1", 0)
	if !bytes.Equal(got, data) {
		t.Fatal("restored bytes differ from original")
	}
}

func TestIncrementalVersionsDedup(t *testing.T) {
	n, _ := newNode(t, testConfig())
	data := genData(2, 4<<20)
	versions := [][]byte{data}
	for v := 0; v < 5; v++ {
		data = mutate(data, int64(100+v), 20)
		versions = append(versions, data)
	}
	for v, d := range versions {
		st, err := n.Backup("f", d)
		if err != nil {
			t.Fatalf("backup v%d: %v", v, err)
		}
		if st.Version != v {
			t.Fatalf("version = %d, want %d", st.Version, v)
		}
		if v > 0 {
			if st.BaseBy != "name" || st.BaseVersion != v-1 {
				t.Fatalf("v%d base detection: %+v", v, st)
			}
			if ratio := st.DedupRatio(); ratio < 0.85 {
				t.Fatalf("v%d dedup ratio %.3f, want > 0.85 for light mutations", v, ratio)
			}
		}
	}
	// Every version restores byte-identically.
	for v, want := range versions {
		got := restoreBytes(t, n, "f", v)
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d corrupt after multi-version dedup", v)
		}
	}
}

func TestSkipChunkingHitsAndEquivalence(t *testing.T) {
	base := genData(3, 2<<20)
	next := mutate(base, 300, 10)

	run := func(skip bool) (*BackupStats, []byte) {
		cfg := testConfig()
		cfg.SkipChunking = skip
		cfg.ChunkMerging = false
		n, _ := newNode(t, cfg)
		if _, err := n.Backup("f", base); err != nil {
			t.Fatal(err)
		}
		st, err := n.Backup("f", next)
		if err != nil {
			t.Fatal(err)
		}
		return st, restoreBytes(t, n, "f", 1)
	}

	withSkip, outSkip := run(true)
	noSkip, outPlain := run(false)

	if withSkip.SkipHits == 0 {
		t.Fatal("skip chunking never succeeded on an incremental version")
	}
	if noSkip.SkipHits != 0 {
		t.Fatal("skip hits counted with skip chunking disabled")
	}
	// The paper's Fig 5(b): skip chunking must not change the dedup ratio.
	if d := withSkip.DedupRatio() - noSkip.DedupRatio(); d < -0.001 || d > 0.001 {
		t.Fatalf("skip chunking changed dedup ratio: %.4f vs %.4f",
			withSkip.DedupRatio(), noSkip.DedupRatio())
	}
	if !bytes.Equal(outSkip, outPlain) || !bytes.Equal(outSkip, next) {
		t.Fatal("restored output differs under skip chunking")
	}
	// Skip hits avoid the byte-by-byte scan: chunking CPU must drop.
	skipCPU := withSkip.Account.CPUPhase("chunking")
	plainCPU := noSkip.Account.CPUPhase("chunking")
	if skipCPU >= plainCPU {
		t.Fatalf("chunking CPU did not drop with skip chunking: %v vs %v", skipCPU, plainCPU)
	}
}

func TestChunkMergingCreatesAndMatchesSuperchunks(t *testing.T) {
	cfg := testConfig()
	cfg.MergeThreshold = 3
	n, _ := newNode(t, cfg)

	data := genData(4, 2<<20)
	var stats []*BackupStats
	// Back up the same region repeatedly with tiny head mutations so
	// duplicateTimes climbs past the threshold.
	for v := 0; v < 7; v++ {
		d := append([]byte{}, data...)
		copy(d[:8], []byte{byte(v), 1, 2, 3, 4, 5, 6, 7})
		st, err := n.Backup("f", d)
		if err != nil {
			t.Fatalf("backup v%d: %v", v, err)
		}
		stats = append(stats, st)
	}
	var created, matched int
	for _, st := range stats {
		created += st.NewSuperchunks
		matched += st.SuperHits
	}
	if created == 0 {
		t.Fatal("no superchunks were created despite stable content")
	}
	if matched == 0 {
		t.Fatal("no superchunk matches in later versions")
	}
	// Chunk count should fall once merging kicks in (Fig 6a: avg size up).
	if stats[6].NumChunks >= stats[1].NumChunks {
		t.Fatalf("chunk count did not fall: v1=%d v6=%d", stats[1].NumChunks, stats[6].NumChunks)
	}
	// Every version still restores correctly.
	for v := 0; v < 7; v++ {
		d := append([]byte{}, data...)
		copy(d[:8], []byte{byte(v), 1, 2, 3, 4, 5, 6, 7})
		if !bytes.Equal(restoreBytes(t, n, "f", v), d) {
			t.Fatalf("version %d corrupt with chunk merging", v)
		}
	}
}

func TestSimilarityDetection(t *testing.T) {
	n, _ := newNode(t, testConfig())
	data := genData(5, 2<<20)
	if _, err := n.Backup("original-name", data); err != nil {
		t.Fatal(err)
	}
	// Same content, new name: STEP 1 must fall back to the similar file
	// index and still dedupe nearly everything.
	st, err := n.Backup("renamed-file", mutate(data, 500, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseBy != "similarity" || st.BaseFile != "original-name" {
		t.Fatalf("similarity detection failed: %+v", st)
	}
	if st.DedupRatio() < 0.8 {
		t.Fatalf("dedup ratio %.3f via similarity, want > 0.8", st.DedupRatio())
	}
}

func TestUnrelatedFileNoFalseBase(t *testing.T) {
	n, _ := newNode(t, testConfig())
	if _, err := n.Backup("a", genData(6, 1<<20)); err != nil {
		t.Fatal(err)
	}
	st, err := n.Backup("b", genData(7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseBy == "similarity" {
		t.Fatalf("unrelated file matched a base: %+v", st)
	}
	if st.DuplicateBytes != 0 {
		t.Fatalf("phantom duplicates: %d bytes", st.DuplicateBytes)
	}
}

func TestRestoreWithPrefetchThreads(t *testing.T) {
	for _, threads := range []int{0, 1, 4} {
		cfg := testConfig()
		cfg.PrefetchThreads = threads
		n, _ := newNode(t, cfg)
		data := genData(8, 2<<20)
		if _, err := n.Backup("f", data); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		st, err := n.Restore("f", 0, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("threads=%d: corrupt restore", threads)
		}
		if st.Cache.Rereads != 0 {
			t.Fatalf("threads=%d: rereads = %d", threads, st.Cache.Rereads)
		}
		if threads > 0 {
			// Overlapped I/O must not be slower than sequential.
			seq := st.Account.ElapsedSequential()
			if st.Elapsed > seq {
				t.Fatalf("threads=%d: overlapped %v > sequential %v", threads, st.Elapsed, seq)
			}
		}
	}
}

func TestRestoreMissingVersion(t *testing.T) {
	n, _ := newNode(t, testConfig())
	var buf bytes.Buffer
	if _, err := n.Restore("ghost", 0, &buf); err == nil {
		t.Fatal("restoring a missing file did not error")
	}
}

func TestBackupEmptyFileID(t *testing.T) {
	n, _ := newNode(t, testConfig())
	if _, err := n.Backup("", []byte("x")); err == nil {
		t.Fatal("empty file ID accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.ChunkMerging = false
	n, _ := newNode(t, cfg)
	data := genData(9, 2<<20)
	st, err := n.Backup("f", data)
	if err != nil {
		t.Fatal(err)
	}
	// Without merging, stored + duplicate == logical exactly.
	if st.StoredBytes+st.DuplicateBytes != st.LogicalBytes {
		t.Fatalf("byte accounting: stored %d + dup %d != logical %d",
			st.StoredBytes, st.DuplicateBytes, st.LogicalBytes)
	}
	if st.ThroughputMBps() <= 0 {
		t.Fatal("throughput not positive")
	}
	io := st.Account.IO()
	if io.WriteBytes < st.StoredBytes {
		t.Fatalf("OSS write bytes %d < stored bytes %d", io.WriteBytes, st.StoredBytes)
	}
}

func TestVersionInfoAndGarbageMark(t *testing.T) {
	cfg := testConfig()
	n, repo := newNode(t, cfg)
	data := genData(10, 2<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	// Replace most content so v1 uses mostly new containers.
	data2 := genData(11, 2<<20)
	if _, err := n.Backup("f", data2); err != nil {
		t.Fatal(err)
	}
	info0, err := repo.Recipes.GetInfo("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(info0.Garbage) == 0 {
		t.Fatal("no garbage containers marked on v0 after divergent v1")
	}
	info1, err := repo.Recipes.GetInfo("f", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(info1.Containers) == 0 || info1.LogicalSize != int64(len(data2)) {
		t.Fatalf("v1 info: %+v", info1)
	}
}

func TestDedupCacheEviction(t *testing.T) {
	cfg := testConfig()
	cfg.SegmentChunks = 32
	cfg.DedupCacheSegments = 2 // hold only two prefetched segments
	cfg.ChunkMerging = false
	n, _ := newNode(t, cfg)
	data := genData(60, 2<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	st, err := n.Backup("f", mutate(data, 600, 5))
	if err != nil {
		t.Fatal(err)
	}
	// With a tiny cache the sequential pass still dedups well (segments
	// are needed roughly in order), and the bound held.
	if st.DedupRatio() < 0.7 {
		t.Fatalf("dedup ratio %.3f with bounded cache", st.DedupRatio())
	}
	if st.SegmentsFetched < 3 {
		t.Fatalf("expected many segment fetches, got %d", st.SegmentsFetched)
	}
	if !bytes.Equal(restoreBytes(t, n, "f", 1), mutate(data, 600, 5)) {
		t.Fatal("restore corrupt with bounded dedup cache")
	}
}

func TestRestoreRange(t *testing.T) {
	cfg := testConfig()
	cfg.ContainerCapacity = 512 << 10
	n, repo := newNode(t, cfg)
	data := genData(90, 4<<20) // unique: every container is dense for a full restore
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	r, err := repo.Recipes.GetRecipe("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	// touchedBytes sums Meta.DataSize over the containers [off, off+length)
	// has chunks in: what the window would cost in full-object reads.
	touchedBytes := func(off, length int64) (sum int64) {
		seen := map[container.ID]bool{}
		var pos int64
		for _, rec := range allRecords(r) {
			if next := pos + int64(rec.Size); next > off && pos < off+length && !seen[rec.Container] {
				seen[rec.Container] = true
				m, err := repo.Containers.ReadMeta(rec.Container)
				if err != nil {
					t.Fatal(err)
				}
				sum += int64(m.DataSize)
			}
			pos += int64(rec.Size)
		}
		return sum
	}
	size := int64(len(data))
	const window = 16 << 10
	cases := []struct {
		off, length int64
		sparse      bool // a sliver of each touched container: the planner must range-read
	}{
		{0, 100, false},              // head
		{1 * size / 8, window, true}, // four scattered windows
		{3 * size / 8, window, true},
		{5 * size / 8, window, true},
		{7 * size / 8, window, true},
		{1 << 20, 64 << 10, false}, // middle, unaligned
		{size - 777, -1, false},    // tail, open-ended
		{12345, 1, false},          // single byte
		{0, -1, false},             // whole file via range API
		{size, 100, false},         // empty at EOF
	}
	for _, c := range cases {
		var buf bytes.Buffer
		st, err := n.RestoreRange("f", 0, c.off, c.length, &buf)
		if err != nil {
			t.Fatalf("range [%d,+%d): %v", c.off, c.length, err)
		}
		end := size
		if c.length >= 0 && c.off+c.length < end {
			end = c.off + c.length
		}
		want := data[c.off:end]
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("range [%d,+%d): got %d bytes, want %d", c.off, c.length, buf.Len(), len(want))
		}
		if st.Bytes != int64(len(want)) {
			t.Fatalf("range [%d,+%d): stats.Bytes = %d", c.off, c.length, st.Bytes)
		}
		// A window runs without the prefetcher, and says so.
		wantThreads := cfg.PrefetchThreads
		if c.off > 0 || end < size {
			wantThreads = 0
		}
		if st.PrefetchThreads != wantThreads {
			t.Errorf("range [%d,+%d): reports %d prefetch threads, ran with %d", c.off, c.length, st.PrefetchThreads, wantThreads)
		}
		if c.sparse {
			read, full := st.Account.IO().ReadBytes, touchedBytes(c.off, c.length)
			if st.Cache.RangedReads == 0 || 3*read > 2*full {
				t.Errorf("range [%d,+%d): %d ranged reads, %d bytes read from OSS; the touched containers hold %d, want ranged and at most 2/3 of that",
					c.off, c.length, st.Cache.RangedReads, read, full)
			}
		}
	}
	// A small middle range must read far fewer containers than the full
	// restore (that is the point of the API).
	var buf bytes.Buffer
	full, err := n.Restore("f", 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	small, err := n.RestoreRange("f", 0, 1<<20, 32<<10, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if small.Cache.ContainersRead >= full.Cache.ContainersRead {
		t.Fatalf("range restore read %d containers, full read %d",
			small.Cache.ContainersRead, full.Cache.ContainersRead)
	}
	// Dense control: a full restore needs every chunk of every container,
	// so the planner issues no ranged read at all.
	if full.Cache.RangedSpans != 0 {
		t.Errorf("full restore issued %d ranged spans", full.Cache.RangedSpans)
	}
	// Errors.
	if _, err := n.RestoreRange("f", 0, -1, 10, &buf); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := n.RestoreRange("f", 0, int64(len(data))+1, 10, &buf); err == nil {
		t.Fatal("offset past EOF accepted")
	}
	rotUnderCRCs(t, repo, "f", 5*size/8+window/2)
	checkRangeVerify(t, n, repo, "f", data, 5*size/8, window, 1*size/8)
}

// TestBackupOverVanishedBaseContainer: a version dedupes against its base,
// so its records name the containers the base's do — and one of those may be
// gone: another file sharing its chunks was compacted, the index repointed,
// and a sweep dropped the emptied container (restores follow the index).
// Sparse detection reads the metadata of every container the new version
// references; what is gone cannot be sparse and must not fail the backup — it
// used to, for every later backup of the file. A container that is gone and
// was NOT moved is lost: no backup is acknowledged over it.
func TestBackupOverVanishedBaseContainer(t *testing.T) {
	ln, repo := newNode(t, testConfig())
	gn := gnode.New(repo)
	v0 := genData(61, 1<<20)
	st, err := ln.Backup("f", v0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Backup("g", v0); err != nil {
		t.Fatal(err)
	}
	moved, kept := st.NewContainers[0], st.NewContainers[1]
	if _, err := gn.CompactSparse("g", 0, []container.ID{moved}); err != nil {
		t.Fatal(err)
	}
	if _, err := gn.FullSweep(); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.Containers.ReadMeta(moved); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("fixture: the compacted container is still there (%v)", err)
	}
	v1 := mutate(v0, 62, 4)
	st1, err := ln.Backup("f", v1)
	if err != nil {
		t.Fatalf("backup over a base whose container was compacted away: %v", err)
	}
	if slices.Contains(st1.SparseContainers, moved) {
		t.Fatalf("a container that does not exist was reported sparse: %v", st1.SparseContainers)
	}
	if !bytes.Equal(restoreBytes(t, ln, "f", st1.Version), v1) {
		t.Fatal("the version backed up over the moved container does not restore")
	}

	if err := repo.Containers.Delete(kept); err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Backup("f", mutate(v1, 63, 4)); err == nil || !strings.Contains(err.Error(), kept.String()) {
		t.Fatalf("backup over a lost container: %v, want an error naming %s", err, kept)
	}
}
