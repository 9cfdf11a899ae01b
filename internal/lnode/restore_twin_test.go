package lnode

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// restorePolicies are the four cache policies every restore property
// must hold under.
var restorePolicies = []string{"fv", "opt", "alacc", "lru"}

// comparableRestore strips the account pointer and the prefetch counters
// (zero by construction in the unprefetched twin; for the counters
// themselves see TestPrefetchStatsDeterministic) so a prefetched run and
// its unprefetched twin compare field-for-field, including virtual Elapsed.
func comparableRestore(s *RestoreStats) RestoreStats {
	c := *s
	c.Account = nil
	c.Prefetch = cache.PrefetchStats{}
	return c
}

// prefetchConserved asserts that on a successful restore every read the
// prefetcher started was taken (nothing was fetched for nothing).
func prefetchConserved(t *testing.T, st *RestoreStats) {
	t.Helper()
	if st.Prefetch.Cancelled != 0 {
		t.Errorf("prefetch cancelled %d slots on a clean restore: %+v", st.Prefetch.Cancelled, st.Prefetch)
	}
	if st.Prefetch.Dispatched != st.Prefetch.Consumed {
		t.Errorf("prefetch dispatched %d != consumed %d", st.Prefetch.Dispatched, st.Prefetch.Consumed)
	}
}

// TestPrefetchStatsDeterministic: which container reads run ahead is a
// function of the request sequence, never of scheduling. One fragmented
// version, restored 20 times per policy and thread count through a cache
// small enough to force rereads, reports the same RestoreStats — prefetch
// counters included, nothing normalised — every time; every started read
// is taken; and the only fetches that run on the policy's goroutine are
// the rereads, because a policy asks for containers in first-need order
// and so never outruns the window.
func TestPrefetchStatsDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.SharedCacheBytes = -1 // every restore reads the store
	cfg.CacheMemBytes = 640 << 10
	cfg.CacheDiskBytes = 0
	n, repo := newNode(t, cfg)
	defer n.Close()
	const versions = 6
	data := genData(66, 1<<20)
	for v := 0; v < versions; v++ {
		if _, err := n.Backup("f", data); err != nil {
			t.Fatal(err)
		}
		data = mutate(data, int64(100+v), 100)
	}
	rereads := 0
	for _, policy := range restorePolicies {
		for _, threads := range []int{1, 6} {
			repo.Config.RestorePolicy, repo.Config.PrefetchThreads = policy, threads
			var first RestoreStats
			for run := 0; run < 20; run++ {
				st, err := n.Restore("f", versions-1, io.Discard)
				if err != nil {
					t.Fatalf("%s/%d run %d: %v", policy, threads, run, err)
				}
				got := *st
				got.Account = nil
				if run == 0 {
					first = got
					rereads += got.Cache.Rereads
					prefetchConserved(t, st)
					if got.Prefetch.Dispatched == 0 {
						t.Errorf("%s/%d: the prefetcher never engaged: %+v", policy, threads, got.Prefetch)
					}
					if got.Prefetch.Direct != got.Cache.Rereads {
						t.Errorf("%s/%d: %d direct fetches, %d rereads", policy, threads, got.Prefetch.Direct, got.Cache.Rereads)
					}
				} else if !reflect.DeepEqual(got, first) {
					t.Fatalf("%s/%d run %d differs from run 0:\n%+v\n%+v", policy, threads, run, got, first)
				}
			}
		}
	}
	if rereads == 0 {
		t.Error("fixture: no policy reread a container, so Direct == Rereads checked nothing")
	}
}

// TestRestoreRangeTwinSerial pins RestoreRange's trim arithmetic to the
// source bytes for every cache policy: ranges that trim the tail chunk
// only, both the head and the tail chunk, land inside a single chunk,
// and trim the head chunk through end of file.
func TestRestoreRangeTwinSerial(t *testing.T) {
	cfg := testConfig()
	cfg.SharedCacheBytes = -1 // every policy fetches for itself
	n, repo := newNode(t, cfg)
	defer n.Close()
	data := genData(64, 3<<20)
	if _, err := n.Backup("twin", data); err != nil {
		t.Fatal(err)
	}
	total := int64(len(data))
	ranges := []struct {
		off, length int64
	}{
		{0, 64 << 10},
		{1234567, 300<<10 + 17},
		{total / 2, 1},
		{total - 5000, -1},
	}

	for _, policy := range restorePolicies {
		t.Run(policy, func(t *testing.T) {
			repo.Config.RestorePolicy = policy
			for _, rg := range ranges {
				end := total
				if rg.length >= 0 && rg.off+rg.length < end {
					end = rg.off + rg.length
				}
				var buf bytes.Buffer
				st, err := n.RestoreRange("twin", 0, rg.off, rg.length, &buf)
				if err != nil {
					t.Fatalf("range [%d,+%d): %v", rg.off, rg.length, err)
				}
				if !bytes.Equal(buf.Bytes(), data[rg.off:end]) {
					t.Fatalf("range [%d,+%d): restored bytes differ from the source", rg.off, rg.length)
				}
				if st.Bytes != end-rg.off {
					t.Errorf("range [%d,+%d): stats.Bytes = %d, want %d", rg.off, rg.length, st.Bytes, end-rg.off)
				}
			}
		})
	}
	rotUnderCRCs(t, repo, "twin", 1234567+150<<10)
	for _, policy := range restorePolicies {
		repo.Config.RestorePolicy = policy
		checkRangeVerify(t, n, repo, "twin", data, 1234567, 300<<10, 0)
	}
}

// TestRestorePrefetchAllPolicies: the prefetcher must engage (dispatch
// slots) for every policy, not just fv, and a prefetched restore's stats
// must stay bit-identical to the unprefetched one apart from Elapsed
// overlap — the prefetcher changes WHEN containers are read, never what
// is charged.
func TestRestorePrefetchAllPolicies(t *testing.T) {
	data := genData(65, 3<<20)
	for _, policy := range restorePolicies {
		t.Run(policy, func(t *testing.T) {
			cfg := testConfig()
			cfg.RestorePolicy = policy
			cfg.SharedCacheBytes = -1 // keep the two runs independent
			n, repo := newNode(t, cfg)
			defer n.Close()
			if _, err := n.Backup("f", data); err != nil {
				t.Fatal(err)
			}

			st, err := n.Restore("f", 0, bytes.NewBuffer(nil))
			if err != nil {
				t.Fatal(err)
			}
			if st.Prefetch.Dispatched+st.Prefetch.Direct == 0 {
				t.Fatalf("policy %s saw no prefetch activity: %+v", policy, st.Prefetch)
			}
			prefetchConserved(t, st)

			repo.Config.PrefetchThreads = 0
			plain, err := n.Restore("f", 0, bytes.NewBuffer(nil))
			if err != nil {
				t.Fatal(err)
			}
			a, b := comparableRestore(st), comparableRestore(plain)
			a.Elapsed, b.Elapsed = 0, 0
			a.PrefetchThreads, b.PrefetchThreads = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("prefetching changed restore stats:\nwith:    %+v\nwithout: %+v", a, b)
			}
			if st.Elapsed > plain.Elapsed {
				t.Errorf("prefetched Elapsed %v exceeds unprefetched %v", st.Elapsed, plain.Elapsed)
			}
		})
	}
}

// TestRestoreRunVerifyFailure: a chunk whose stored bytes no longer hash to
// the recipe's fingerprint — with a container checksum that matches the
// bad bytes, so only the emit's fingerprint check can catch it — fails
// Verify under every cache policy, and the error names the chunk's index
// in the restore sequence and both fingerprints.
func TestRestoreRunVerifyFailure(t *testing.T) {
	cfg := testConfig()
	cfg.SharedCacheBytes = -1 // every Verify reads the store
	n, repo := newNode(t, cfg)
	defer n.Close()
	if _, err := n.Backup("f", genData(66, 1<<20)); err != nil {
		t.Fatal(err)
	}
	for _, policy := range restorePolicies {
		repo.Config.RestorePolicy = policy
		st, err := n.Verify("f", 0)
		if err != nil {
			t.Fatalf("clean verify (%s): %v", policy, err)
		}
		prefetchConserved(t, st)
	}

	// Rewrite the container of a mid-file chunk with one payload byte
	// flipped; Write re-seals it, so the container's own checksums agree
	// with the bad bytes.
	r, err := repo.Recipes.GetRecipe("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := r.NumChunks() / 2
	var rec recipe.ChunkRecord
	pos := 0
	r.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
		rec = *cr
		pos++
		return pos <= bad
	})
	c, err := repo.Containers.Read(rec.Container)
	if err != nil {
		t.Fatal(err)
	}
	c.Data = bytes.Clone(c.Data) // a fetched container's Data is read-only
	payload, err := c.Get(rec.FP)
	if err != nil {
		t.Fatal(err)
	}
	payload[0] ^= 0xff
	got := fingerprint.Of(cfg.FingerprintAlg, payload)
	if err := repo.Containers.Write(c); err != nil {
		t.Fatal(err)
	}

	want := fmt.Sprintf("chunk %d corrupt (got %s, want %s)", bad, got.Short(), rec.FP.Short())
	for _, policy := range restorePolicies {
		t.Run(policy, func(t *testing.T) {
			repo.Config.RestorePolicy = policy
			if _, err := n.Verify("f", 0); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("verify error = %v, want it to contain %q", err, want)
			}
		})
	}
}

// handoffFixture splits data into the chunk payloads and expected-FP
// sequence the hand-off probes consume.
func handoffFixture(cfg core.Config, repo *core.Repo, data []byte) ([][]byte, []cache.Request) {
	chunks := chunker.SplitAll(data, repo.Cutter())
	bufs := make([][]byte, len(chunks))
	seq := make([]cache.Request, len(chunks))
	for i, c := range chunks {
		bufs[i] = c.Data
		seq[i] = cache.Request{FP: fingerprint.Of(cfg.FingerprintAlg, c.Data), Size: uint32(len(c.Data))}
	}
	return bufs, seq
}

func BenchmarkRestoreHandoff(b *testing.B) {
	cfg := fastConfig()
	repo, err := core.OpenRepo(oss.NewMem(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	n := New(repo, "l0")
	defer n.Close()
	data := genData(68, 8<<20)
	bufs, seq := handoffFixture(cfg, repo, data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RestoreHandoff(bufs, seq, true)
	}
}
