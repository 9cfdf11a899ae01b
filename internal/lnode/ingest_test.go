package lnode

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// fastConfig is testConfig with the history-aware accelerations off: every
// cut is content's, so every version, with a base or not, streams through
// the window (ingest.go).
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
		st, err := n.backup("twin", window{data: data, eof: true}, step2)
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

// streamConfigs are the two shapes BackupStream takes: with the
// history-aware accelerations off ("ring", named for the ingest ring that
// once served it) every version streams through the window; under the
// default configuration a version without a base does, and one with a base
// is buffered behind its head.
func streamConfigs() map[string]core.Config {
	return map[string]core.Config{"ring": fastConfig(), "default": core.DefaultConfig()}
}

// streamTwin backs versions up as one file twice, on nodes whose head is
// head bytes: through Backup, and through BackupStream reading from
// wrap(versions[i]). Every version must get Backup's stats, virtual time
// included, and recipe. Returns the streaming node.
func streamTwin(t *testing.T, cfg core.Config, head int, versions [][]byte, wrap func(io.Reader) io.Reader) *LNode {
	t.Helper()
	buf, bufRepo := newNode(t, cfg)
	str, strRepo := newNode(t, cfg)
	buf.headBytes, str.headBytes = head, head
	for i, data := range versions {
		want, err := buf.Backup("twin", data)
		if err != nil {
			t.Fatalf("backup v%d: %v", i, err)
		}
		got, err := str.BackupStream("twin", wrap(bytes.NewReader(data)))
		if err != nil {
			t.Fatalf("stream backup v%d: %v", i, err)
		}
		if g, w := comparableStats(got), comparableStats(want); !reflect.DeepEqual(g, w) {
			t.Errorf("v%d stats diverge:\nstream: %+v\nbuffer: %+v", i, g, w)
		}
		wantRec, err := bufRepo.RecipesFor(nil).GetRecipe("twin", want.Version)
		if err != nil {
			t.Fatal(err)
		}
		gotRec, err := strRepo.RecipesFor(nil).GetRecipe("twin", got.Version)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRec, wantRec) {
			t.Errorf("v%d recipes diverge", i)
		}
	}
	return str
}

// TestBackupStreamTwin pins streaming ingest to buffered ingest: cutting
// through the refilling window must reproduce the exact whole-buffer chunk
// boundaries, for every cutter. The input exceeds the head-probe size so
// the refill (tail carry to the front of the buffer) is exercised, and so
// is the seam between the probe's cuts and the window's. Then, at a 128 KiB
// head, readers that return short reads (one byte, half the request, data
// with EOF) at version sizes around every seam of the window: the head
// probe's last Max bytes (head ± Max), and the first refill's buffer ending
// one byte before, at and after the version's end; and a head of one
// maximal chunk, which the window outgrows.
func TestBackupStreamTwin(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("multi-MiB stream per cutter")
	}
	v0 := genData(71, headBytes+2<<20)
	versions := [][]byte{v0, mutate(v0, 72, 100)}
	const testHead = 128 << 10
	long := genData(73, 3*testHead)
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{{"one-byte", iotest.OneByteReader}, {"half", iotest.HalfReader}, {"data+eof", iotest.DataErrReader}}
	for _, algo := range []string{"fastcdc", "gear", "rabin", "buzhash", "fixed"} {
		t.Run(algo, func(t *testing.T) {
			for name, cfg := range streamConfigs() {
				t.Run(name, func(t *testing.T) {
					cfg.ChunkAlgo = algo
					n := streamTwin(t, cfg, headBytes, versions, func(r io.Reader) io.Reader { return r })
					if got := restoreBytes(t, n, "twin", 1); !bytes.Equal(got, versions[1]) {
						t.Error("restore of streamed version diverges from input")
					}

					// The first refill comes at the first cut past the head's
					// last Max bytes (the head is read testHead+1 bytes long,
					// and so is the buffer), and reads to the buffer's end.
					cutter, err := chunker.New(algo, cfg.ChunkParams)
					if err != nil {
						t.Fatal(err)
					}
					maxCut, refill := cfg.ChunkParams.Max, 0
					for _, ch := range chunker.SplitAll(long, cutter) {
						if ch.Offset > int64(testHead+1-maxCut) {
							refill = int(ch.Offset)
							break
						}
					}
					seam := refill + testHead + 1
					for _, size := range []int{testHead - maxCut, testHead + maxCut, seam - 1, seam, seam + 1} {
						v := long[:size]
						for _, rd := range readers {
							t.Run(fmt.Sprintf("%s/size=%d", rd.name, size), func(t *testing.T) {
								streamTwin(t, cfg, testHead, [][]byte{v, mutate(v, 74, 10)}, rd.wrap)
							})
						}
					}
					// A head under two maximal chunks: the window outgrows it.
					t.Run("head=max", func(t *testing.T) {
						streamTwin(t, cfg, maxCut, [][]byte{long, mutate(long, 75, 10)}, iotest.HalfReader)
					})
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

// TestIngestHandoffAllocs is the steady-state allocation gate of the front
// of ingest: a cut+fingerprint pass over ~1000 chunks allocates a handful
// of objects, not one per chunk — held to the bound the ingest ring had, a
// couple of objects plus one per 256 chunks.
func TestIngestHandoffAllocs(t *testing.T) {
	cfg := fastConfig()
	n, repo := newNode(t, cfg)
	data := genData(3, 4<<20)
	want := len(chunker.SplitAll(data, repo.Cutter()))

	if got := n.IngestHandoff(data); got != want {
		t.Fatalf("handoff produced %d chunks, want %d", got, want)
	}
	allocs := testing.AllocsPerRun(10, func() { n.IngestHandoff(data) })

	t.Logf("allocs/pass over %d chunks: %.1f", want, allocs)
	if raceEnabled {
		// Race instrumentation allocates shadow state; the counts only
		// mean anything uninstrumented.
		t.Skip("allocation gate skipped under -race")
	}
	if batches := (want + 255) / 256; allocs > float64(2+batches) {
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
// synthetic unique stream many times larger than the window must keep live
// heap bounded by the window (the head's buffer + pack budget + recipe),
// not the input size — with the accelerations off and under the default
// configuration, where a version without a base streams just the same.
// Input and bound are build-tag sized (ingest_norace_test.go /
// ingest_race_test.go).
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
// leave no goroutine behind (each package's TestMain checks for leaks).
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

// BenchmarkBackupStreamFirstVersion streams a 64 MiB unique first version,
// the shape of a first `slimstore backup`, through BackupStream under the
// default configuration, into a fresh in-memory repository each iteration.
func BenchmarkBackupStreamFirstVersion(b *testing.B) {
	const size = 64 << 20
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		repo, err := core.OpenRepo(oss.NewMem(), core.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		n := New(repo, "l0")
		src := io.LimitReader(&rndReader{state: uint64(i) + 1}, size)
		b.StartTimer()
		if _, err := n.BackupStream("big", src); err != nil {
			b.Fatal(err)
		}
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
