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
	"slimstore/internal/gnode"
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

// TestPrefetchStatsDeterministic: which container reads run ahead, and which
// requests a restore issues at all, is a function of the request sequence,
// never of scheduling. Two fixtures. One fragmented version behind 256 KiB
// containers, through a cache small enough to force rereads: every started
// read is taken, and the only fetches that run on the policy's goroutine are
// the rereads, because a policy asks for containers in first-need order and
// so never outruns the window. And one version behind 4 MiB containers, part
// of it left sparse by an optimize pass: full reads that get cut, ranged
// reads beside them. On both, 20 restores per policy and thread count report
// the same RestoreStats — prefetch counters and virtual Elapsed included,
// nothing normalised — the same read count on the account and the same
// data-object requests (as a multiset: which, not when). With no more than
// one channel, and for a range restore whatever the thread count, the
// requests are exactly the planner's — one GET per part of a container
// read whole, one ranged read per planned span and part it touches, as
// RangedSpans counts them; with six channels over 4 MiB containers, put
// in parts as a backup puts them, there are more.
func TestPrefetchStatsDeterministic(t *testing.T) {
	t.Parallel()
	type fixture struct {
		name    string
		cfg     core.Config
		backups func(t *testing.T, n *LNode, repo *core.Repo) (version int)
		cuts    bool
	}
	small := testConfig()
	small.CacheMemBytes = 640 << 10
	small.CacheDiskBytes = 0
	fixtures := []fixture{
		{name: "rereads", cfg: small, backups: func(t *testing.T, n *LNode, _ *core.Repo) int {
			const versions = 6
			data := genData(66, 1<<20)
			for v := 0; v < versions; v++ {
				if _, err := n.Backup("f", data); err != nil {
					t.Fatal(err)
				}
				data = mutate(data, int64(100+v), 100)
			}
			return versions - 1
		}},
		{name: "cuts", cfg: core.DefaultConfig(), cuts: true, backups: func(t *testing.T, n *LNode, repo *core.Repo) int {
			data := genData(7, 12<<20)
			if _, err := n.Backup("f", data); err != nil {
				t.Fatal(err)
			}
			// v1 keeps a slice from the middle of each of v0's containers:
			// optimizing it leaves v0 reading the two live ends of each.
			var v1 []byte
			for k := 0; k < 3; k++ {
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
			return 0
		}},
	}

	type outcome struct {
		Stats RestoreStats
		Reads int64
		Reqs  []string
	}
	// gets counts the whole-object GETs: a whole read takes one per part of
	// its payload, and only a read Split cut is ranged reads instead.
	gets := func(o outcome) (n int) {
		for _, q := range o.Reqs {
			if strings.HasPrefix(q, "get ") {
				n++
			}
		}
		return n
	}
	planned := func(o outcome) int { // the requests of the plans, whole reads uncut
		return gets(o) + o.Stats.Cache.RangedSpans
	}
	parts := 0 // requests of a payload's second part
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			frozen := oss.NewFrozen(oss.NewMem())
			defer func() {
				if err := frozen.Check(); err != nil {
					t.Error(err)
				}
			}()
			log := newReqLog(frozen)
			fx.cfg.SharedCacheBytes = -1 // every restore reads the store
			repo, err := core.OpenRepo(log.store, fx.cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := New(repo, "l0")
			version := fx.backups(t, n, repo)
			log.sorted()
			run := func(restore func() (*RestoreStats, error)) outcome {
				t.Helper()
				st, err := restore()
				if err != nil {
					t.Fatal(err)
				}
				o := outcome{Stats: *st, Reads: st.Account.IO().Reads, Reqs: log.sorted()}
				o.Stats.Account = nil
				return o
			}
			rereads := 0
			for _, policy := range restorePolicies {
				for _, threads := range []int{0, 1, 6} {
					repo.Config.RestorePolicy, repo.Config.PrefetchThreads = policy, threads
					name := fmt.Sprintf("%s/%d", policy, threads)
					var first outcome
					for i := 0; i < 20; i++ {
						got := run(func() (*RestoreStats, error) { return n.Restore("f", version, io.Discard) })
						if i == 0 {
							first = got
						} else if !reflect.DeepEqual(got, first) {
							t.Fatalf("%s run %d differs from run 0:\n%+v\n%+v", name, i, got, first)
						}
					}
					pf, c := first.Stats.Prefetch, first.Stats.Cache
					rereads += c.Rereads
					if threads > 0 {
						prefetchConserved(t, &first.Stats)
						if pf.Dispatched == 0 {
							t.Errorf("%s: the prefetcher never engaged: %+v", name, pf)
						}
						if pf.Direct != c.Rereads {
							t.Errorf("%s: %d direct fetches, %d rereads", name, pf.Direct, c.Rereads)
						}
					}
					if threads <= 1 {
						if len(first.Reqs) != planned(first) {
							t.Errorf("%s: %d data requests, the plan has %d: a read was cut with one channel", name, len(first.Reqs), planned(first))
						}
						if full := c.ContainersRead - c.RangedReads; gets(first) < full {
							t.Errorf("%s: %d whole-object GETs for %d whole reads", name, gets(first), full)
						}
					}
					for _, q := range first.Reqs {
						if strings.Contains(q, ".1.data") {
							parts++
						}
					}
					if fx.cuts {
						if c.RangedReads == 0 || c.ContainersRead == c.RangedReads {
							t.Fatalf("%s: fixture: want full and ranged reads both: %+v", name, c)
						}
						if threads == 6 && len(first.Reqs) <= planned(first) {
							t.Errorf("%s: %d data requests for a plan of %d: nothing was cut", name, len(first.Reqs), planned(first))
						}
					}
					size := first.Stats.Bytes
					ranged := run(func() (*RestoreStats, error) {
						return n.RestoreRange("f", version, size/10, size*3/4, io.Discard)
					})
					if len(ranged.Reqs) != planned(ranged) {
						t.Errorf("%s: a range restore issued %d data requests, its plan has %d", name, len(ranged.Reqs), planned(ranged))
					}
				}
			}
			if !fx.cuts && rereads == 0 {
				t.Error("fixture: no policy reread a container, so Direct == Rereads checked nothing")
			}
			if fx.cuts && parts == 0 {
				t.Error("fixture: no restore read a payload in parts")
			}
		})
	}
}

// TestRangedSpansCountsParts: RangedSpans is the number of ranged reads a
// restore issued: a span across the cut between a payload's two parts is
// two of them.
func TestRangedSpansCountsParts(t *testing.T) {
	log := newReqLog(oss.NewMem())
	cfg := core.DefaultConfig()
	cfg.SharedCacheBytes = -1
	repo, err := core.OpenRepo(log.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	st, err := n.Backup("f", genData(5, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := repo.Containers.ReadMeta(st.NewContainers[0])
	if err != nil || len(st.NewContainers) != 1 || m.NumParts() != 2 {
		t.Fatalf("fixture: %d containers, the first in %d parts (%v); want one in two", len(st.NewContainers), m.NumParts(), err)
	}
	log.sorted()
	rs, err := n.RestoreRange("f", 0, int64(m.Parts[0])-64<<10, 128<<10, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if reqs := log.sorted(); rs.Cache.RangedReads != 1 || rs.Cache.RangedSpans != 2 || len(reqs) != 2 {
		t.Fatalf("%d ranged reads counting %d requests; the store saw %v, want one read of two", rs.Cache.RangedReads, rs.Cache.RangedSpans, reqs)
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
	data := genData(68, 8<<20)
	bufs, seq := handoffFixture(cfg, repo, data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RestoreHandoff(bufs, seq, true)
	}
}
