package gnode

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/journal"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

// These tests kill G-node reorganisations at every possible OSS mutation and
// verify the intent journal makes each outcome safe: after "reboot"
// (reopening the repo, which replays the journal), every version restores
// byte-identical and the audit sweep converges.

// cloneMem snapshots an in-memory store, giving each crash point a
// pristine copy of the baseline state.
func cloneMem(t *testing.T, src *oss.Mem) *oss.Mem {
	t.Helper()
	dst := oss.NewMem()
	keys, err := src.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		b, err := src.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Put(k, b); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// sccBaseline builds a repo with two versions of one file where the
// second version's backup flagged sparse containers, so CompactSparse has
// real work. Returns the store, config, version data and the stats of the
// compactable version.
func sccBaseline(t *testing.T) (*oss.Mem, core.Config, map[int][]byte, *lnode.BackupStats) {
	return sccFixture(t, false)
}

// rangedCosts prices a request forty times cheaper than the default model,
// so that the read planner's coalescing gap (~2 KiB) and cut floor
// (~16 KiB) sit below this suite's 128 KiB containers as the default ones
// (80 KiB, 640 KiB) sit below 4 MiB: under it the G-node's reads come out
// ranged and cut, under the default every source here is one GET.
func rangedCosts(cfg *core.Config) { cfg.Costs.OSSRequestLatency /= 40 }

// sccFixture is sccBaseline when ranged is false: v1 uses most of every
// one of v0's containers, so every source of its compaction is rewritten.
// With ranged, v1 leans on them unevenly — most of the first, second and
// fourth, two short runs of the third, the first chunk of the fifth, none
// of the rest — under rangedCosts: the third and fifth stay and are read
// in ranges, the others are rewritten and read whole, in pieces at width
// 4 and more (assertRangedAndCut holds a test to that).
func sccFixture(t *testing.T, ranged bool) (*oss.Mem, core.Config, map[int][]byte, *lnode.BackupStats) {
	t.Helper()
	cfg := testConfig()
	cfg.SparseUtilization = 0.99 // flag aggressively so SCC always has input
	if ranged {
		rangedCosts(&cfg)
	}
	mem := oss.NewMem()
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln := lnode.New(repo, "l0")

	v0 := genData(10, 1<<20)
	if _, err := ln.Backup("f", v0); err != nil {
		t.Fatal(err)
	}
	// Scatter single-byte edits: v1 shares most chunks with v0 but uses
	// each of v0's containers only partially, so they are flagged sparse.
	v1 := append([]byte{}, v0...)
	for off := 32 << 10; off < len(v1); off += 32 << 10 {
		v1[off] = ^v0[off]
	}
	if ranged {
		for off := 258 << 10; off < 384<<10; off += 2 << 10 { // the third container's bytes
			if k := off >> 10; (k < 288 || k >= 298) && (k < 340 || k >= 350) {
				v1[off] = ^v0[off]
			}
		}
		copy(v1[511<<10:], genData(11, len(v1)))
	}
	st, err := ln.Backup("f", v1)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.SparseContainers) == 0 {
		t.Fatal("baseline produced no sparse containers; crash coverage would be vacuous")
	}
	return mem, cfg, map[int][]byte{0: v0, 1: v1}, st
}

// verifyAfterReboot reopens the repo from the bare store (journal replay
// runs inside OpenRepo) and checks every surviving version restores
// byte-identical, then that the audit sweep runs clean.
func verifyAfterReboot(t *testing.T, mem *oss.Mem, cfg core.Config, want map[int][]byte) {
	t.Helper()
	verifyFilesAfterReboot(t, mem, cfg, map[string]map[int][]byte{"f": want})
}

// verifyFilesAfterReboot is verifyAfterReboot over several files; it
// returns the rebooted repo so a test can carry on from the crashed state.
func verifyFilesAfterReboot(t *testing.T, mem *oss.Mem, cfg core.Config, want map[string]map[int][]byte) *core.Repo {
	t.Helper()
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	ln := lnode.New(repo, "l0")
	for f, versions := range want {
		for v, data := range versions {
			var buf bytes.Buffer
			if _, err := ln.Restore(f, v, &buf); err != nil {
				t.Fatalf("post-crash restore %s v%d: %v", f, v, err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("post-crash restore %s v%d differs from original", f, v)
			}
		}
	}
	if _, err := New(repo).FullSweep(); err != nil {
		t.Fatalf("post-crash sweep: %v", err)
	}
	return repo
}

// TestCompactSparseCrashAtEveryPut kills a compaction before every OSS
// mutation it issues — puts and deletes — at the serial width and with
// the fan-out on, and reboots from what reached the store.
func TestCompactSparseCrashAtEveryPut(t *testing.T) {
	for _, ranged := range []bool{false, true} {
		baseline, cfg, want, st := sccFixture(t, ranged)
		for _, workers := range []int{-1, 4} {
			t.Run(variantName(workers, ranged), func(t *testing.T) {
				cfg := cfg
				cfg.MaintWorkers = workers
				completed := false
				for n := 0; n < 400 && !completed; n++ {
					mem := cloneMem(t, baseline)
					var rec oss.Recorder
					repo, err := core.OpenRepo(oss.With(mem, &rec, oss.CrashAfter(n)), cfg)
					if err != nil {
						t.Fatal(err)
					}
					sizes := payloadSizes(t, repo)
					rec.Take()
					_, err = New(repo).CompactSparse("f", st.Version, st.SparseContainers)
					if err == nil {
						completed = true
						if ranged {
							assertRangedAndCut(t, &rec, sizes, workers > 1)
						}
					}
					// "Crash": abandon the repo object (buffered index state dies with
					// it) and reboot from what actually reached the store.
					verifyAfterReboot(t, mem, cfg, want)
				}
				if !completed {
					t.Fatal("compaction never ran to completion within the mutation budget")
				}
			})
		}
	}

	// Sanity: on the fully-compacted state the journal is empty.
	baseline, cfg, _, st := sccBaseline(t)
	repo, err := core.OpenRepo(baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gn := New(repo)
	if _, err := gn.CompactSparse("f", st.Version, st.SparseContainers); err != nil {
		t.Fatal(err)
	}
	keys, err := repo.Journal.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("journal records survive a successful compaction: %v", keys)
	}
}

// variantName names a subtest run at a width and, when ranged, under the
// fixture and costs that make the G-node's reads ranged and cut.
func variantName(workers int, ranged bool) string {
	if ranged {
		return fmt.Sprintf("workers=%d,ranged", workers)
	}
	return fmt.Sprintf("workers=%d", workers)
}

// TestReverseDedupCrashAtEveryPut kills a reverse-dedup pass with real
// duplicates and physical rewrites before every OSS mutation it issues —
// the index's WAL put, the metadata marks, each rewrite's journal record,
// data and meta puts and deletes — at the serial width and with the
// fan-out on. After the reboot every file restores byte-identical (old
// copies gone or not, redirects resolve through what the index made
// durable first), the sweep converges, and the pass re-run on the
// rebooted repo completes what the crash cut short.
func TestReverseDedupCrashAtEveryPut(t *testing.T) {
	tw := buildTwin(t, -1)
	cfg := tw.repo.Config
	want := map[string]map[int][]byte{}
	for _, f := range []string{"a", "b", "c"} {
		want[f] = map[int][]byte{0: restoreBytes(t, tw.ln, f, 0)}
	}

	for _, workers := range []int{-1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := cfg
			cfg.MaintWorkers = workers
			completed := false
			for n := 0; n < 400 && !completed; n++ {
				mem := cloneMem(t, tw.mem)
				repo, err := core.OpenRepo(oss.With(mem, oss.CrashAfter(n)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				st, err := New(repo).ReverseDedup(tw.new)
				if err == nil {
					completed = true
					if st.DuplicatesRemoved == 0 || st.ContainersRewritten == 0 {
						t.Fatalf("degenerate pass, nothing to crash in: %+v", st)
					}
				} else if !errors.Is(err, oss.ErrInjected) {
					t.Fatalf("budget %d: %v, want the injected crash", n, err)
				}
				rebooted := verifyFilesAfterReboot(t, mem, cfg, want)
				if _, err := New(rebooted).ReverseDedup(tw.new); err != nil {
					t.Fatalf("budget %d: re-run after reboot: %v", n, err)
				}
				verifyFilesAfterReboot(t, mem, cfg, want)
			}
			if !completed {
				t.Fatal("reverse dedup never ran to completion within the mutation budget")
			}
		})
	}
}

// rewriteCrash lets a compaction run until its own journal record is
// removed, then crashes the parallel rewrite phase in the state only the
// fan-out can reach: it holds back every container put until two rewrite
// records are committed, then refuses container puts — all of them
// (payloads never land: replay rolls the rewrites back) or only the
// metadata ones (payloads land: replay rolls them forward) — and every
// delete.
func rewriteCrash(dataLands bool) oss.Layer {
	var (
		mu           sync.Mutex
		rewriting    bool // the SCC record is gone: journal puts are rewrite commits
		commits      int
		twoCommitted = make(chan struct{})
	)
	return oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		put, del := op.Kind == oss.KindPut, op.Kind == oss.KindDelete
		mu.Lock()
		crashing := rewriting
		if strings.HasPrefix(op.Key, journal.Prefix) {
			if put && rewriting {
				if commits++; commits == 2 {
					close(twoCommitted)
				}
			}
			rewriting = rewriting || del
		}
		mu.Unlock()
		refused := crashing && del
		if crashing && put && strings.HasPrefix(op.Key, container.Prefix) {
			<-twoCommitted
			refused = !dataLands || strings.HasSuffix(op.Key, ".meta")
		}
		if refused {
			return op, fmt.Errorf("%w: crashed before %s", oss.ErrInjected, op)
		}
		return oss.Do(next, op)
	})
}

// TestCompactSparseCrashWithRewritesOutstanding crashes with at least two
// KindRewrite records committed and unfinished — concurrent rewrites are
// what the fan-out adds to the reachable crash states — and requires the
// reboot to resolve every one of them.
func TestCompactSparseCrashWithRewritesOutstanding(t *testing.T) {
	for _, ranged := range []bool{false, true} {
		baseline, cfg, want, st := sccFixture(t, ranged)
		cfg.MaintWorkers = 4
		for _, dataLands := range []bool{false, true} {
			name := fmt.Sprintf("dataLands=%v", dataLands)
			if ranged {
				name += ",ranged"
			}
			t.Run(name, func(t *testing.T) {
				mem := cloneMem(t, baseline)
				var rec oss.Recorder
				repo, err := core.OpenRepo(oss.With(mem, &rec, rewriteCrash(dataLands)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				sizes := payloadSizes(t, repo)
				rec.Take()
				if _, err := New(repo).CompactSparse("f", st.Version, st.SparseContainers); !errors.Is(err, oss.ErrInjected) {
					t.Fatalf("CompactSparse returned %v, want the injected crash", err)
				}
				if ranged {
					assertRangedAndCut(t, &rec, sizes, true)
				}

				js, _, err := journal.Open(mem)
				if err != nil {
					t.Fatal(err)
				}
				keys, err := js.List()
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range keys {
					rec, err := js.Get(k)
					if err != nil {
						t.Fatal(err)
					}
					if rec.Kind != journal.KindRewrite {
						t.Fatalf("record %s is %s, want only rewrites outstanding", k, rec.Kind)
					}
				}
				if len(keys) < 2 {
					t.Fatalf("%d rewrite records outstanding at the crash, want >= 2", len(keys))
				}

				verifyAfterReboot(t, mem, cfg, want)
				if left, err := js.List(); err != nil || len(left) != 0 {
					t.Fatalf("journal after reboot: %v (err %v)", left, err)
				}
			})
		}
	}
}

// TestFullSweepReclaimsOrphanedPayload crashes a backup between a
// container's data put and its metadata put, reboots, and sweeps: the
// payload no list shows is deleted, and the sweep counts its bytes.
func TestFullSweepReclaimsOrphanedPayload(t *testing.T) {
	cfg := testConfig()
	for n := 0; n < 100; n++ {
		mem := oss.NewMem()
		if _, err := core.OpenRepo(mem, cfg); err != nil { // the repository header
			t.Fatal(err)
		}
		repo, err := core.OpenRepo(oss.With(mem, oss.CrashAfter(n)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lnode.New(repo, "l0").Backup("f", genData(1, 512<<10)); !errors.Is(err, oss.ErrInjected) {
			t.Fatalf("budget %d: backup returned %v before a payload was orphaned", n, err)
		}
		orphan, size := orphanedPayload(t, mem)
		if orphan == "" {
			continue // the crash fell before a payload put or after its metadata put
		}

		rebooted, err := core.OpenRepo(mem, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(rebooted).FullSweep()
		if err != nil {
			t.Fatal(err)
		}
		if left, _ := mem.List(strings.TrimSuffix(orphan, ".data")); len(left) != 0 {
			t.Fatalf("after the sweep %v remain", left)
		}
		if st.BytesReclaimed < size {
			t.Fatalf("sweep reclaimed %d bytes, want at least the orphan's %d", st.BytesReclaimed, size)
		}
		return
	}
	t.Fatal("no crash point fell between a payload put and its metadata put")
}

// orphanedPayload returns the key and size of a container payload object
// with no metadata object beside it, or "" if there is none.
func orphanedPayload(t *testing.T, mem *oss.Mem) (string, int64) {
	t.Helper()
	keys, err := mem.List(container.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !strings.HasSuffix(k, ".data") {
			continue
		}
		if _, err := mem.Head(strings.TrimSuffix(k, ".data") + ".meta"); errors.Is(err, oss.ErrNotFound) {
			size, err := mem.Head(k)
			if err != nil {
				t.Fatal(err)
			}
			return k, size
		}
	}
	return "", 0
}
