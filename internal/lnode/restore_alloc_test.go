package lnode

import (
	"io"
	"runtime"
	"testing"

	"slimstore/internal/core"
	"slimstore/internal/gnode"
)

// allocPerByte runs one restore of fileID/version into a discarding sink
// and returns the heap bytes allocated during it per restored byte.
func allocPerByte(t *testing.T, n *LNode, fileID string, version int) (float64, *RestoreStats) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	st, err := n.Restore(fileID, version, io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(st.Bytes), st
}

// TestRestoreAllocatesNoPayloadCopies: under the default configuration a
// restored byte goes from the object store to the writer without being
// copied into a buffer of the restore's own — not per Get (oss.Mem hands
// out views), not per cached chunk (the job caches keep views of the
// fetched container), not per ranged read or per piece of a cut one (each
// stays the buffer its request returned; the container indexes them). What
// a restore allocates is metadata — the request sequence, the caches' maps
// — well under half a byte per byte restored, whether its containers come
// whole, in pieces (the dense case: four 4 MiB containers, cut) or as
// spans; a copy anywhere on the path costs a whole one.
func TestRestoreAllocatesNoPayloadCopies(t *testing.T) {
	if raceEnabled {
		t.Skip("the race allocator pads and sync.Pool drops: allocation totals are not comparable")
	}
	n, repo := newNode(t, core.DefaultConfig())
	data := genData(7, 16<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	ids, err := repo.Containers.List()
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for _, id := range ids {
		if m, err := repo.Containers.ReadMeta(id); err == nil && m.NumParts() > 1 {
			split++
		}
	}
	if split == 0 {
		t.Fatal("fixture: no container's payload is in parts")
	}
	perByte, st := allocPerByte(t, n, "f", 0)
	if st.Bytes != int64(len(data)) || st.Cache.SharedHits != 0 {
		t.Fatalf("fixture: restored %d bytes with %d shared hits, want a cold restore of %d", st.Bytes, st.Cache.SharedHits, len(data))
	}
	t.Logf("cold dense restore: %.3f allocated bytes per restored byte", perByte)
	if perByte > 0.5 {
		t.Fatalf("cold dense restore allocated %.2f bytes per restored byte, want <= 0.5", perByte)
	}

	// v1 keeps one ~700 KiB slice from the middle of each of v0's 4 MiB
	// containers and is new data otherwise: sparse users, so optimizing v1
	// moves the slices into fresh containers and marks them deleted in
	// v0's — 17 % stale, under the rewrite threshold. v0 then needs the
	// two live ends of each old container, which the planner reads as two
	// spans, and all of the fresh ones.
	var v1 []byte
	for k := 0; k < 4; k++ {
		mid := k<<22 + 1600<<10
		v1 = append(append(v1, genData(int64(100+k), 1<<20)...), data[mid:mid+696<<10]...)
	}
	bs, err := n.Backup("f", v1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gnode.New(repo).Optimize("f", bs.Version, bs.NewContainers, bs.SparseContainers); err != nil {
		t.Fatal(err)
	}
	perByte, st = allocPerByte(t, n, "f", 0)
	if st.Cache.RangedReads == 0 {
		t.Fatalf("fixture: the old version was restored without ranged reads: %+v", st.Cache)
	}
	t.Logf("ranged-read restore: %.3f allocated bytes per restored byte (%d ranged reads of %d requests, %d full reads)",
		perByte, st.Cache.RangedReads, st.Cache.RangedSpans, st.Cache.ContainersRead-st.Cache.RangedReads)
	if perByte > 0.5 {
		t.Fatalf("ranged-read restore allocated %.2f bytes per restored byte, want <= 0.5 (%d ranged reads of %d requests)",
			perByte, st.Cache.RangedReads, st.Cache.RangedSpans)
	}
}
