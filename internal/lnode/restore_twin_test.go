package lnode

import (
	"bytes"
	"fmt"
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

// comparableRestore strips the account pointer and the prefetcher
// effectiveness counters (the consumed-vs-direct split depends on
// goroutine scheduling; prefetchConserved checks it separately) so twin
// stats compare field-for-field, including virtual Elapsed.
func comparableRestore(s *RestoreStats) RestoreStats {
	c := *s
	c.Account = nil
	c.Prefetch = cache.PrefetchStats{}
	return c
}

// prefetchConserved asserts the scheduling-dependent counters are at
// least self-consistent on a successful restore: every dispatched slot
// was consumed (no worker fetched for nothing).
func prefetchConserved(t *testing.T, st *RestoreStats) {
	t.Helper()
	if st.Prefetch.Cancelled != 0 {
		t.Errorf("prefetch cancelled %d slots on a clean restore: %+v", st.Prefetch.Cancelled, st.Prefetch)
	}
	if st.Prefetch.Dispatched != st.Prefetch.Consumed {
		t.Errorf("prefetch dispatched %d != consumed %d", st.Prefetch.Dispatched, st.Prefetch.Consumed)
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
