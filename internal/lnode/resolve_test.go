package lnode

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/globalindex"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
)

// resolveReference is the obviously-right resolver core.Repo.Resolve, as
// the restore calls it (LNode.resolve), is pinned to: one record at a time,
// one metadata read per container, one global-index Get per moved chunk, in
// recipe order.
func resolveReference(repo *core.Repo, r *recipe.Recipe, recs []*recipe.ChunkRecord) ([]cache.Request, int, error) {
	var seq []cache.Request
	redirects := 0
	metas := map[container.ID]*container.Meta{}
	for _, rec := range recs {
		m, seen := metas[rec.Container]
		if !seen {
			m, _ = repo.Containers.ReadMeta(rec.Container) // nil: container gone
			metas[rec.Container] = m
		}
		req := cache.Request{FP: rec.FP, Container: rec.Container, Size: rec.Size}
		cm := (*container.ChunkMeta)(nil)
		if m != nil {
			cm = m.Find(rec.FP)
		}
		if cm == nil || cm.Deleted {
			id, ok, err := repo.Global.Get(rec.FP)
			if err != nil {
				return nil, 0, err
			}
			if !ok && m == nil {
				return nil, 0, fmt.Errorf("lnode: chunk %s of %s v%d lost with container %s",
					rec.FP.Short(), r.FileID, r.Version, rec.Container)
			}
			if !ok {
				return nil, 0, fmt.Errorf("lnode: chunk %s of %s v%d lost (container %s)",
					rec.FP.Short(), r.FileID, r.Version, rec.Container)
			}
			req.Container = id
			redirects++
		}
		seq = append(seq, req)
	}
	return seq, redirects, nil
}

// TestResolveSequenceEqualsReference: over version chains the G-node has
// reverse-deduplicated, compacted and pruned, the wave resolver returns the
// reference's request sequence, redirect count and lost-chunk error for
// every version, at any read width and index sharding — and charges one
// index lookup per moved chunk.
func TestResolveSequenceEqualsReference(t *testing.T) {
	t.Parallel()
	for _, shards := range []int{1, 4} {
		for _, threads := range []int{0, 1, 6} {
			t.Run(fmt.Sprintf("shards=%d/threads=%d", shards, threads), func(t *testing.T) {
				cfg := testConfig()
				cfg.GlobalShards = shards
				cfg.SparseUtilization = 0.9
				mem := oss.NewMem()
				optimizedChain(t, mem, cfg, 70+int64(shards), 2<<20, 6)

				repo, err := core.OpenRepo(mem, cfg)
				if err != nil {
					t.Fatal(err)
				}
				repo.Config.PrefetchThreads = threads // after the open: 0 stays 0, the serial run
				n := New(repo, "l0")
				// Out-of-order deletion: v1 goes, v0 keeps redirecting.
				if _, err := gnode.New(repo).DeleteVersion("f", 1); err != nil {
					t.Fatal(err)
				}

				check := func(v int) (redirects int, refErr error) {
					t.Helper()
					r, err := repo.Recipes.GetRecipe("f", v)
					if err != nil {
						t.Fatal(err)
					}
					recs := allRecords(r)
					wantSeq, wantRedirects, wantErr := resolveReference(repo, r, recs)
					acct := simclock.NewAccount()
					res, err := n.resolve(repo.Containers, r, recs, acct, nil)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("v%d: error %v, reference %v", v, err, wantErr)
					}
					if err != nil {
						return 0, wantErr
					}
					seq, redirects, memo := res.Seq, res.Redirects, res.Metas
					if !reflect.DeepEqual(seq, wantSeq) {
						t.Errorf("v%d: request sequence differs from the reference", v)
					}
					if redirects != wantRedirects {
						t.Errorf("v%d: %d redirects, reference %d", v, redirects, wantRedirects)
					}
					if got, want := acct.CPUPhase(simclock.PhaseIndexQuery), cfg.Costs.IndexLookup*time.Duration(redirects); got != want {
						t.Errorf("v%d: index-query charge %v for %d redirects, want %v", v, got, redirects, want)
					}
					for _, rq := range seq {
						if _, ok := memo[rq.Container]; !ok {
							t.Fatalf("v%d: memo misses container %s of the sequence", v, rq.Container)
						}
					}
					return redirects, nil
				}
				total := 0
				for _, v := range []int{0, 2, 3, 4, 5} {
					red, err := check(v)
					if err != nil {
						t.Fatalf("v%d: reference lost a chunk on an intact chain: %v", v, err)
					}
					total += red
				}
				if total == 0 {
					t.Fatal("fixture: no version redirects")
				}

				// Lose one moved chunk of v0 (drop its index entry), then one
				// whose home container is gone entirely: both lost-chunk errors.
				r, _ := repo.Recipes.GetRecipe("f", 0)
				recs := allRecords(r)
				seq, _, err := resolveReference(repo, r, recs)
				if err != nil {
					t.Fatal(err)
				}
				lost := -1
				for i := range recs {
					if seq[i].Container != recs[i].Container {
						lost = i
						break
					}
				}
				if err := repo.Global.PutBatch([]globalindex.Entry{{FP: recs[lost].FP, ID: container.Invalid}}); err != nil {
					t.Fatal(err)
				}
				if _, err := check(0); err == nil {
					t.Fatal("dropping a moved chunk's index entry lost nothing")
				}
				if err := repo.Containers.Delete(recs[0].Container); err != nil {
					t.Fatal(err)
				}
				if err := repo.Global.PutBatch([]globalindex.Entry{{FP: recs[0].FP, ID: container.Invalid}}); err != nil {
					t.Fatal(err)
				}
				if _, err := check(0); err == nil {
					t.Fatal("dropping a home container and its chunk's index entry lost nothing")
				}
			})
		}
	}
}
