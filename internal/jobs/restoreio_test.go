package jobs

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
)

// isDataRead selects the container data-object reads issued to the base
// store — the true OSS traffic underneath every per-job metered view and
// the node-wide shared cache.
func isDataRead(op oss.Op) bool {
	return (op.Kind == oss.KindGet || op.Kind == oss.KindGetRange) && strings.HasSuffix(op.Key, ".data")
}

// TestConcurrentOverlappingRestoresShareFetches drives the node-level
// restore I/O layer the way the paper's deployment does: many jobs
// restoring the same version at once. Against a cold cache, the
// singleflight plus shared cache must collapse the container traffic to
// one OSS GET per unique container — not one per job — while every job's
// output stays byte-identical to the backed-up data.
func TestConcurrentOverlappingRestoresShareFetches(t *testing.T) {
	const jobs = 6

	var base oss.Recorder
	repo, err := core.OpenRepo(oss.With(oss.NewMem(), &base), stressConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(repo, gnode.New(repo), Options{LNodes: jobs})
	defer eng.Close()

	data := stressData(42, 2<<20)
	res := eng.Run(nil, []Job{{Kind: Backup, FileID: "db/overlap", Data: data}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	uniques := len(res[0].Backup.NewContainers)
	if uniques < 4 {
		t.Fatalf("scenario too small: %d containers", uniques)
	}

	base.Take()
	bufs := make([]bytes.Buffer, jobs)
	batch := make([]Job, jobs)
	for i := range batch {
		batch[i] = Job{Kind: Restore, FileID: "db/overlap", Version: 0, Out: &bufs[i]}
	}
	for i, r := range eng.Run(nil, batch) {
		if r.Err != nil {
			t.Fatalf("restore %d: %v", i, r.Err)
		}
		if !bytes.Equal(bufs[i].Bytes(), data) {
			t.Fatalf("restore %d: bytes differ from backup input", i)
		}
		if st := r.Restore.Cache; st.ContainersRead+st.SharedHits+st.SharedJoins < uniques {
			t.Fatalf("restore %d read %d containers + %d hits + %d joins, want >= %d",
				i, st.ContainersRead, st.SharedHits, st.SharedJoins, uniques)
		}
	}

	// The collapse property: jobs × uniques fetch demands, at most uniques
	// actual OSS reads (each unique container fetched by exactly one job).
	if got := len(base.Requests(isDataRead)); got > uniques {
		t.Fatalf("%d concurrent restores issued %d OSS data reads over %d unique containers — singleflight/shared cache not collapsing",
			jobs, got, uniques)
	}
	st := eng.SharedCacheStats()
	if st.Misses == 0 {
		t.Fatalf("shared cache saw no owner fetches: %+v", st)
	}
	// Everything the owners fetched was reused by the other jobs.
	if want := int64((jobs-1)*uniques) - st.InflightJoins - st.Hits; want > 0 {
		t.Fatalf("shared reuse too low: hits=%d joins=%d misses=%d over %d jobs × %d containers",
			st.Hits, st.InflightJoins, st.Misses, jobs, uniques)
	}
}

// TestRestoreAfterInvalidationRefetches asserts the safety half of the
// cache: when maintenance drops containers, the resident entries must be
// invalidated, and later restores must keep serving correct bytes.
//
// The scenario is built so the drop is guaranteed: v1 shares nothing with
// v0, so every v0 container becomes a garbage candidate at v1's backup,
// and deleting v0 sweeps them — while the warming restore has left exactly
// those containers resident in the shared cache.
func TestRestoreAfterInvalidationRefetches(t *testing.T) {
	repo, err := core.OpenRepo(oss.NewMem(), stressConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(repo, gnode.New(repo), Options{LNodes: 2})
	defer eng.Close()

	v0, v1 := stressData(7, 1<<20), stressData(8, 1<<20)
	for v, d := range [][]byte{v0, v1} {
		if res := eng.Run(nil, []Job{{Kind: Backup, FileID: "db/inval", Data: d}}); res[0].Err != nil {
			t.Fatalf("backup v%d: %v", v, res[0].Err)
		}
		var buf bytes.Buffer
		if res := eng.Run(nil, []Job{{Kind: Restore, FileID: "db/inval", Version: v, Out: &buf}}); res[0].Err != nil {
			t.Fatalf("warming restore v%d: %v", v, res[0].Err)
		}
		if !bytes.Equal(buf.Bytes(), d) {
			t.Fatalf("warming restore v%d: bytes differ", v)
		}
	}
	warm := eng.SharedCacheStats()
	if warm.Entries == 0 {
		t.Fatalf("warming restores left nothing resident: %+v", warm)
	}

	res := eng.Run(nil, []Job{{Kind: Delete, FileID: "db/inval", Version: 0}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].GC.ContainersCollected == 0 {
		t.Fatal("delete collected no containers — scenario does not exercise invalidation")
	}
	st := eng.SharedCacheStats()
	if st.Invalidations == 0 {
		t.Fatalf("GC dropped %d containers but the shared cache saw no invalidations: %+v",
			res[0].GC.ContainersCollected, st)
	}
	if st.Entries >= warm.Entries {
		t.Fatalf("invalidation did not shrink the cache: %d -> %d entries", warm.Entries, st.Entries)
	}

	// The surviving version still restores byte-identically through the
	// post-invalidation cache.
	var buf bytes.Buffer
	res = eng.Run(nil, []Job{{Kind: Restore, FileID: "db/inval", Version: 1, Out: &buf}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if !bytes.Equal(buf.Bytes(), v1) {
		t.Fatal("post-delete restore v1: bytes differ")
	}
	// And the deleted version fails loudly rather than being served stale
	// out of the cache.
	if res = eng.Run(nil, []Job{{Kind: Restore, FileID: "db/inval", Version: 0, Out: io.Discard}}); res[0].Err == nil {
		t.Fatal("restore of deleted v0 succeeded — served from stale cache?")
	}
}
