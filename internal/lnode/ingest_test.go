package lnode

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"testing/iotest"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// fastConfig is testConfig with the history-aware accelerations off, which
// routes STEP 2 through the ingest ring (ingest.go).
func fastConfig() core.Config {
	cfg := testConfig()
	cfg.SkipChunking = false
	cfg.ChunkMerging = false
	return cfg
}

// comparable strips the per-job account pointer so twin stats can be
// compared field-for-field (including virtual Elapsed).
func comparableStats(s *BackupStats) BackupStats {
	c := *s
	c.Account = nil
	return c
}

// backupVersions runs two versions of a file through a fresh repo, with
// step2 as the dedupe stage ((*backupJob).dedupe is what Backup runs), and
// returns stats and full recipes.
func backupVersions(t *testing.T, cfg core.Config, versions [][]byte, step2 func(*backupJob) error) ([]BackupStats, []*recipe.Recipe) {
	t.Helper()
	n, repo := newNode(t, cfg)
	var stats []BackupStats
	var recs []*recipe.Recipe
	for i, data := range versions {
		st, err := n.backup("twin", data, data, true, step2)
		if err != nil {
			t.Fatalf("backup v%d: %v", i, err)
		}
		stats = append(stats, comparableStats(st))
		r, err := repo.RecipesFor(nil).GetRecipe("twin", st.Version)
		if err != nil {
			t.Fatalf("get recipe v%d: %v", i, err)
		}
		recs = append(recs, r)
	}
	return stats, recs
}

// TestIngestTwinSerial pins the ring to the serial reference — the
// history-aware loop with both accelerations off, which is the plain
// chunk→hash→probe loop: same chunk boundaries, fingerprints, recipes,
// dedup stats, and bit-identical virtual time, for every cutter. Run under
// -race by scripts/check.sh, which also exercises the pipeline's
// concurrency.
func TestIngestTwinSerial(t *testing.T) {
	t.Parallel()
	for _, algo := range []string{"fastcdc", "gear", "rabin", "buzhash", "fixed"} {
		t.Run(algo, func(t *testing.T) {
			v0 := genData(42, 3<<20)
			versions := [][]byte{v0, mutate(v0, 43, 150)}

			fastCfg := fastConfig()
			fastCfg.ChunkAlgo = algo
			fastStats, fastRecs := backupVersions(t, fastCfg, versions, (*backupJob).dedupe)

			serialCfg := fastConfig()
			serialCfg.ChunkAlgo = algo
			serialStats, serialRecs := backupVersions(t, serialCfg, versions, (*backupJob).dedupeHistoryAware)

			for i := range versions {
				if !reflect.DeepEqual(fastStats[i], serialStats[i]) {
					t.Errorf("v%d stats diverge:\nfast:   %+v\nserial: %+v", i, fastStats[i], serialStats[i])
				}
				if !reflect.DeepEqual(fastRecs[i], serialRecs[i]) {
					t.Errorf("v%d recipes diverge", i)
				}
			}
		})
	}
}

// streamConfigs are the two shapes BackupStream takes: with the
// history-aware accelerations off every version streams through the ring;
// under the default configuration a version without a base does, and one
// with a base is buffered behind its head for the history-aware loop.
func streamConfigs() map[string]core.Config {
	return map[string]core.Config{"ring": fastConfig(), "default": core.DefaultConfig()}
}

// TestBackupStreamTwin pins streaming ingest to buffered ingest: cutting
// through recycled slabs with bounded lookahead must reproduce the exact
// whole-buffer chunk boundaries, for every cutter. The input exceeds the
// head-probe size so the slab refill path (tail carry between buffers) is
// exercised, and so is the seam between the probe's cuts and the ring's.
func TestBackupStreamTwin(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-MiB stream per cutter")
	}
	v0 := genData(71, headBytes+2<<20)
	versions := [][]byte{v0, mutate(v0, 72, 100)}
	for _, algo := range []string{"fastcdc", "gear", "rabin", "buzhash", "fixed"} {
		t.Run(algo, func(t *testing.T) {
			for name, cfg := range streamConfigs() {
				t.Run(name, func(t *testing.T) {
					cfg.ChunkAlgo = algo
					bufStats, bufRecs := backupVersions(t, cfg, versions, (*backupJob).dedupe)

					n, repo := newNode(t, cfg)
					for i, data := range versions {
						st, err := n.BackupStream("twin", bytes.NewReader(data))
						if err != nil {
							t.Fatalf("stream backup v%d: %v", i, err)
						}
						if got := comparableStats(st); !reflect.DeepEqual(got, bufStats[i]) {
							t.Errorf("v%d stats diverge:\nstream: %+v\nbuffer: %+v", i, got, bufStats[i])
						}
						r, err := repo.RecipesFor(nil).GetRecipe("twin", st.Version)
						if err != nil {
							t.Fatalf("get recipe v%d: %v", i, err)
						}
						if !reflect.DeepEqual(r, bufRecs[i]) {
							t.Errorf("v%d recipes diverge", i)
						}
					}
					if got := restoreBytes(t, n, "twin", 1); !bytes.Equal(got, versions[1]) {
						t.Error("restore of streamed version diverges from input")
					}
				})
			}
		})
	}
}

// TestBackupStreamFallback covers the one case BackupStream still
// materialises: history-aware accelerations on and a base to follow.
func TestBackupStreamFallback(t *testing.T) {
	cfg := testConfig() // history-aware accelerations on
	n, _ := newNode(t, cfg)
	v0 := genData(5, 1<<20)
	v1 := mutate(v0, 6, 20)
	for i, data := range [][]byte{v0, v1} {
		st, err := n.BackupStream("f", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if st.LogicalBytes != int64(len(data)) {
			t.Fatalf("v%d logical bytes = %d, want %d", i, st.LogicalBytes, len(data))
		}
		if got := restoreBytes(t, n, "f", i); !bytes.Equal(got, data) {
			t.Errorf("v%d restore diverges from input", i)
		}
	}
	if st, err := n.BackupStream("f", bytes.NewReader(v1)); err != nil || st.SkipHits == 0 {
		t.Errorf("a streamed version with a base ran without skip chunking: %+v, %v", st, err)
	}
}

// TestIngestHandoffAllocs is the steady-state allocation gate of the
// ring: a pass of the pooled chunk→hash→ring hand-off over ~1000 chunks
// allocates a handful of objects and one goroutine closure per batch of
// 256, not one per chunk.
func TestIngestHandoffAllocs(t *testing.T) {
	cfg := fastConfig()
	n, repo := newNode(t, cfg)
	data := genData(3, 4<<20)
	want := len(chunker.SplitAll(data, repo.Cutter()))

	// Pin the GC so sync.Pool contents survive the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ { // warm the batch/run pools and goroutine cache
		if got := n.IngestHandoff(data); got != want {
			t.Fatalf("handoff produced %d chunks, want %d", got, want)
		}
	}
	allocs := testing.AllocsPerRun(10, func() { n.IngestHandoff(data) })

	t.Logf("allocs/pass over %d chunks: %.1f", want, allocs)
	if raceEnabled {
		// Race instrumentation allocates shadow state per goroutine and
		// channel op; the counts only mean anything uninstrumented.
		t.Skip("allocation gate skipped under -race")
	}
	if batches := (want + ingestBatchChunks - 1) / ingestBatchChunks; allocs > float64(2+batches) {
		t.Errorf("hand-off allocates %.1f/pass, want <= 2 + %d batches", allocs, batches)
	}
}

// discardStore drops container payloads on write and delegates everything
// else, so a stream test can push far more data than it wants resident.
type discardStore struct{ oss.Store }

func (s discardStore) Put(key string, data []byte) error {
	if strings.HasPrefix(key, container.Prefix) && strings.HasSuffix(key, ".data") {
		return nil
	}
	return s.Store.Put(key, data)
}

// rndReader yields a deterministic pseudo-random byte stream (splitmix64).
type rndReader struct{ state uint64 }

func (r *rndReader) Read(p []byte) (int, error) {
	for i := 0; i < len(p); i += 8 {
		r.state += 0x9e3779b97f4a7c15
		z := r.state
		z ^= z >> 30
		z *= 0xbf58476d1ce4e9b5
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		for j := 0; j < 8 && i+j < len(p); j++ {
			p[i+j] = byte(z >> (8 * uint(j)))
		}
	}
	return len(p), nil
}

// heapSampler wraps the input stream and samples live heap every
// sampleEvery bytes read.
type heapSampler struct {
	inner io.Reader
	since int64
	peak  uint64
}

const heapSampleEvery = 16 << 20

func (h *heapSampler) Read(p []byte) (int, error) {
	n, err := h.inner.Read(p)
	h.since += int64(n)
	if h.since >= heapSampleEvery {
		h.since = 0
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > h.peak {
			h.peak = ms.HeapAlloc
		}
	}
	return n, err
}

// TestBackupStreamResidentMemory is the O(window) gate: streaming a
// synthetic unique stream many times larger than the pipeline window must
// keep live heap bounded by the window (head probe + ring slabs + pack
// budget + recipe), not the input size — with the accelerations off and
// under the default configuration, where a version without a base streams
// just the same. Input and bound are build-tag sized
// (ingest_norace_test.go / ingest_race_test.go).
func TestBackupStreamResidentMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("streams hundreds of MiB")
	}
	for name, cfg := range streamConfigs() {
		t.Run(name, func(t *testing.T) {
			repo, err := core.OpenRepo(discardStore{oss.NewMem()}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := New(repo, "l0")

			src := &heapSampler{inner: io.LimitReader(&rndReader{state: 1}, streamTestBytes)}
			st, err := n.BackupStream("big", src)
			if err != nil {
				t.Fatal(err)
			}
			if st.LogicalBytes != streamTestBytes {
				t.Fatalf("logical bytes = %d, want %d", st.LogicalBytes, int64(streamTestBytes))
			}
			t.Logf("peak live heap %.1f MiB over a %d MiB stream (bound %d MiB)",
				float64(src.peak)/(1<<20), streamTestBytes>>20, int64(streamHeapBound)>>20)
			if src.peak > streamHeapBound {
				t.Errorf("peak live heap %d bytes exceeds O(window) bound %d", src.peak, int64(streamHeapBound))
			}
		})
	}
}

// TestBackupStreamReadError: a mid-stream read failure must surface and
// leave no goroutines wedged (the -race run doubles as the leak check).
func TestBackupStreamReadError(t *testing.T) {
	cfg := fastConfig()
	n, _ := newNode(t, cfg)
	src := io.MultiReader(
		io.LimitReader(&rndReader{state: 2}, int64(headBytes)+4<<20),
		iotest.ErrReader(io.ErrClosedPipe),
	)
	if _, err := n.BackupStream("bad", src); err == nil {
		t.Fatal("want read error to surface")
	}
}

func BenchmarkIngestHandoff(b *testing.B) {
	cfg := fastConfig()
	repo, err := core.OpenRepo(oss.NewMem(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(3, 8<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.IngestHandoff(data)
	}
}

// BenchmarkHashAllCrossover locates the input size below which fanning
// the hashing out costs more than hashing inline — the basis for the
// smallHashBatch threshold.
func BenchmarkHashAllCrossover(b *testing.B) {
	for _, workers := range []int{1, 4} {
		cfg := fastConfig()
		repo, err := core.OpenRepo(oss.NewMem(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, nchunks := range []int{1, 2, 8, 64, 512} {
			data := genData(9, nchunks*cfg.ChunkParams.Avg)
			chunks := chunker.SplitAll(data, repo.Cutter())
			b.Run(fmt.Sprintf("chunks=%d/workers=%d", len(chunks), workers), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					hashAll(workers, cfg.FingerprintAlg, chunks)
				}
			})
		}
	}
}
