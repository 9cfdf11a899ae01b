package gnode

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// These tests kill G-node reorganisations at every possible OSS mutation and
// verify that the order of each one's puts makes every outcome safe: after
// "reboot" (reopening the repo from what reached the store) the index names
// only containers that list the fingerprint, every version restores
// byte-identical, and one sweep leaves nothing that no meta or catalog entry
// names.

// rangedCosts prices a request forty times cheaper than the default model,
// so that the read planner's coalescing gap and least piece (both L·B,
// ~2 KiB) sit below this suite's 128 KiB containers as the default one
// (80 KiB) sits below 4 MiB: under it the G-node's reads come out ranged
// and cut, under the default every source here is one GET.
func rangedCosts(cfg *core.Config) { cfg.Costs.OSSRequestLatency /= 40 }

// sccFixture builds a repo with two versions of one file where the second
// version's backup flagged sparse containers, so CompactSparse has real
// work, and returns the store, config, version data and the stats of the
// compactable version. Unless ranged, v1 uses most of every one of v0's
// containers, so every source of its compaction is rewritten.
// With ranged, v1 leans on them unevenly — most of the first, second and
// fourth, two short runs of the third, the first chunk of the fifth, none
// of the rest — under rangedCosts: the third and fifth stay and are read
// in ranges, the others are rewritten and read whole, in pieces at width
// 4 and more (assertRangedAndCut holds a test to that).
func sccFixture(t *testing.T, ranged bool) (*oss.Mem, core.Config, map[int][]byte, *lnode.BackupStats) {
	t.Helper()
	return sccFixtureOn(t, testConfig(), ranged)
}

// sccFixtureOn is sccFixture on the layout of cfg.
func sccFixtureOn(t *testing.T, cfg core.Config, ranged bool) (*oss.Mem, core.Config, map[int][]byte, *lnode.BackupStats) {
	t.Helper()
	cfg.SparseUtilization = 0.99 // flag aggressively so SCC always has input
	if ranged {
		rangedCosts(&cfg)
	}
	mem := oss.NewMem()
	repo := mustOpen(t, mem, cfg)
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

// verifyFilesAfterReboot reopens the repo from the bare store, holds the
// rebooted index sound, checks every version in want restores
// byte-identical, then that the audit sweep runs clean and leaves the store
// true to its catalog; it returns the rebooted repo so a test can carry on
// from the crashed state.
func verifyFilesAfterReboot(t *testing.T, mem *oss.Mem, cfg core.Config, want map[string]map[int][]byte) *core.Repo {
	t.Helper()
	repo := mustOpen(t, mem, cfg)
	assertIndexSound(t, "rebooted", repo)
	ln := lnode.New(repo, "l0")
	for f, versions := range want {
		for v, data := range versions {
			if err := restoreMatches(ln, f, v, data); err != nil {
				t.Fatalf("post-crash restore %s v%d: %v", f, v, err)
			}
		}
	}
	if _, err := New(repo).FullSweep(); err != nil {
		t.Fatalf("post-crash sweep: %v", err)
	}
	assertVersionsCatalogued(t, "swept", mem)
	return repo
}

// restoreMatches restores f's version v into a writer that compares the
// stream with want as it arrives, and fails at the first difference.
func restoreMatches(ln *lnode.LNode, f string, v int, want []byte) error {
	rest := oss.SameBytes(want)
	if _, err := ln.Restore(f, v, &rest); err != nil || len(rest) == 0 {
		return err
	}
	return fmt.Errorf("restored %d bytes short", len(rest))
}

// rerunAfterReboot is the check of a G-node pass's crash loop: every
// version in want restores after the reboot, the pass re-run on the
// rebooted repo completes what the crash cut short, and after it and a
// sweep no payload is left that no meta names.
func rerunAfterReboot(t *testing.T, cfg core.Config, want map[string]map[int][]byte, pass func(*GNode) error) func(*oss.Mem, int, error) bool {
	return func(mem *oss.Mem, n int, _ error) bool {
		// "Crash": the repo object is abandoned (buffered index state dies
		// with it) and the reboot reads what actually reached the store.
		rebooted := verifyFilesAfterReboot(t, mem, cfg, want)
		if err := pass(New(rebooted)); err != nil {
			t.Fatalf("budget %d: re-run after reboot: %v", n, err)
		}
		swept := verifyFilesAfterReboot(t, mem, cfg, want)
		assertPayloadsNamed(t, fmt.Sprintf("budget %d, re-run and swept", n), mem, swept)
		return false
	}
}

// TestCompactSparseCrashAtEveryPut kills a compaction before every OSS
// mutation it issues — puts and deletes — at the serial width and with
// the fan-out on, and reboots from what reached the store: plain, under
// rangedCosts, where its payloads go in parts, and over RS(4+2), where a
// payload put is six puts a crash can cut anywhere. Every reboot restores
// both versions; the pass re-run on it completes, and after it and a sweep
// no payload is left that no meta names.
func TestCompactSparseCrashAtEveryPut(t *testing.T) {
	for _, v := range []struct {
		cfg    core.Config
		ranged bool
	}{{testConfig(), false}, {testConfig(), true}, {ecLayout(testConfig()), false}} {
		baseline, cfg, want, st := sccFixtureOn(t, v.cfg, v.ranged)
		for _, workers := range []int{-1, 4} {
			t.Run(variantName(cfg, workers, v.ranged), func(t *testing.T) {
				t.Parallel()
				cfg := cfg
				cfg.MaintWorkers = workers
				compact := func(g *GNode) error {
					_, err := g.CompactSparse("f", st.Version, st.SparseContainers)
					return err
				}
				oss.CrashAtEvery(t, baseline, crashStride(cfg), 2000, func(s oss.Store) error {
					var rec oss.Recorder
					repo := mustOpen(t, oss.With(s, &rec), cfg)
					sizes := payloadMetas(t, repo)
					rec.Take()
					err := compact(New(repo))
					if err == nil && v.ranged {
						assertRangedAndCut(t, &rec, sizes, workers > 1)
						assertPutInParts(t, &rec)
					}
					return err
				}, rerunAfterReboot(t, cfg, map[string]map[int][]byte{"f": want}, compact))
			})
		}
	}
}

// assertPutInParts fails unless the pass rec recorded put a payload's second
// part. Under rangedCosts a rewrite of 4·L·B_w (~20 KiB) or more goes in two
// parts, a wave of puts that lands in any order, so a crash loop over such
// rewrites must cut between them somewhere.
func assertPutInParts(t *testing.T, rec *oss.Recorder) {
	t.Helper()
	if len(rec.Requests(func(op oss.Op) bool { return op.Kind == oss.KindPut && strings.HasSuffix(op.Key, ".1.data") })) == 0 {
		t.Fatal("no payload of the pass was put in parts")
	}
}

// crashStride is how far a crash loop over cfg steps: every crash point,
// except every fifth on a striped layout under -race (raceEnabled).
func crashStride(cfg core.Config) int {
	if raceEnabled && cfg.ECDataShards > 0 {
		return 5
	}
	return 1
}

// variantName names a subtest run at a width, on cfg's layout when it is
// striped and, when ranged, under the fixture and costs that make the
// G-node's reads ranged and cut.
func variantName(cfg core.Config, workers int, ranged bool) string {
	name := fmt.Sprintf("workers=%d", workers)
	if ranged {
		name += ",ranged"
	}
	if cfg.ECDataShards > 0 {
		name = layoutName(cfg) + "," + name
	}
	return name
}

// TestReverseDedupCrashAtEveryPut kills a reverse-dedup pass with real
// duplicates and physical rewrites before every OSS mutation it issues —
// the index's WAL put, the metadata marks, each rewrite's payload put, meta
// switch and old payload delete — at the serial width and with the fan-out
// on, plain, under rangedCosts (rewrites in parts) and over RS(4+2). After
// the reboot every file restores
// byte-identical (old copies gone or not, redirects resolve through what
// the index made durable first), the sweep converges and leaves no payload
// no meta names, and the pass re-run on the rebooted repo completes what
// the crash cut short.
func TestReverseDedupCrashAtEveryPut(t *testing.T) {
	for _, v := range []struct {
		cfg    core.Config
		ranged bool
	}{{twinConfig(-1), false}, {twinConfig(-1), true}, {ecLayout(twinConfig(-1)), false}} {
		if v.ranged {
			rangedCosts(&v.cfg)
		}
		tw := buildTwinCfg(t, v.cfg)
		cfg := tw.repo.Config
		want := map[string]map[int][]byte{}
		for _, f := range []string{"a", "b", "c"} {
			want[f] = map[int][]byte{0: restoreBytes(t, tw.ln, f, 0)}
		}

		for _, workers := range []int{-1, 4} {
			t.Run(variantName(cfg, workers, v.ranged), func(t *testing.T) {
				t.Parallel()
				cfg := cfg
				cfg.MaintWorkers = workers
				oss.CrashAtEvery(t, tw.mem, crashStride(cfg), 2000, func(s oss.Store) error {
					var rec oss.Recorder
					st, err := New(mustOpen(t, oss.With(s, &rec), cfg)).ReverseDedup(tw.new)
					if err == nil && (st.DuplicatesRemoved == 0 || st.ContainersRewritten == 0) {
						t.Fatalf("degenerate pass, nothing to crash in: %+v", st)
					}
					if err == nil && v.ranged {
						assertPutInParts(t, &rec)
					}
					return err
				}, rerunAfterReboot(t, cfg, want, func(g *GNode) error {
					_, err := g.ReverseDedup(tw.new)
					return err
				}))
			})
		}
	}
}

// commitCrash lets a compaction run into its commit, which the first
// catalog put opens, and crashes it in a state that order and the fan-out
// reach: the mutations of the commit at matches are held until n of them
// wait together, then refused, and so is every mutation after.
func commitCrash(at func(oss.Op) bool, n int) oss.Layer {
	var (
		mu        sync.Mutex
		committed bool
		arrived   int
		crashed   = make(chan struct{})
	)
	return oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind != oss.KindPut && op.Kind != oss.KindDelete {
			return oss.Do(next, op)
		}
		mu.Lock()
		committed = committed || op.Kind == oss.KindPut && strings.HasPrefix(op.Key, "catalog/")
		hold := committed && at(op)
		if hold {
			if arrived++; arrived == n {
				close(crashed)
			}
		}
		mu.Unlock()
		if hold {
			<-crashed
		}
		select {
		case <-crashed:
			return op, fmt.Errorf("%w: crashed before %s", oss.ErrInjected, op)
		default:
			return oss.Do(next, op)
		}
	})
}

// TestCompactSparseCrashWithRewritesOutstanding crashes a compaction whose
// rewrites are outstanding, at width 4, in the two states their place in
// the order adds: with the rewritten payloads landed and the recipe not yet
// put — the first catalog put refused (dataLands=true) — and with two
// sources switched to them and neither old payload's first part deleted
// (switched). The
// crash leaves the payloads it says no meta names; after the reboot and a
// sweep every version restores and none is left.
func TestCompactSparseCrashWithRewritesOutstanding(t *testing.T) {
	for _, ranged := range []bool{false, true} {
		baseline, cfg, want, st := sccFixture(t, ranged)
		cfg.MaintWorkers = 4
		for _, tc := range []struct {
			name              string
			crash             oss.Layer
			unnamed, switched int // at least, at the crash
		}{
			{"dataLands=true", commitCrash(func(oss.Op) bool { return true }, 1), 2, 0},
			// A switch deletes its old payload's parts side by side: the crash
			// waits for the first part of two, whatever the others do.
			{"switched", commitCrash(func(op oss.Op) bool { return op.Kind == oss.KindDelete && strings.Count(op.Key, ".") == 1 }, 2), 2, 2},
		} {
			name := tc.name
			if ranged {
				name += ",ranged"
			}
			t.Run(name, func(t *testing.T) {
				mem := baseline.Clone()
				var rec oss.Recorder
				repo := mustOpen(t, oss.With(mem, &rec, tc.crash), cfg)
				sizes := payloadMetas(t, repo)
				rec.Take()
				if _, err := New(repo).CompactSparse("f", st.Version, st.SparseContainers); !errors.Is(err, oss.ErrInjected) {
					t.Fatalf("CompactSparse returned %v, want the injected crash", err)
				}
				if ranged {
					assertRangedAndCut(t, &rec, sizes, true)
				}

				rebooted := mustOpen(t, mem, cfg)
				unnamed, switched := unnamedPayloads(t, mem, rebooted), 0
				for _, m := range listedMetas(t, rebooted) {
					if m.Payload != m.ID {
						switched++
					}
				}
				if len(unnamed) < tc.unnamed || switched < tc.switched || tc.switched == 0 && switched > 0 {
					t.Fatalf("the crash left %d payloads no meta names and %d metas switched, want %d and %d", len(unnamed), switched, tc.unnamed, tc.switched)
				}

				swept := verifyFilesAfterReboot(t, mem, cfg, map[string]map[int][]byte{"f": want})
				assertPayloadsNamed(t, "after the sweep", mem, swept)
			})
		}
	}
}

// TestCompactSparseCrashAfterRecipeKeepsCopiesLive crashes a compaction
// right after its recipe put, which names the fresh copies, and before the
// catalog put that follows. The copies must be on the version's catalog list
// already: a deletion decides liveness from the lists alone. On the rebooted
// repo a second file backs up against the compacted version — its first
// version references the copies — and its next version drops them, so they
// become the second file's garbage; deleting that version must keep them,
// and the compacted version restores.
func TestCompactSparseCrashAfterRecipeKeepsCopiesLive(t *testing.T) {
	baseline, cfg, want, st := sccFixture(t, false)
	mem := baseline.Clone()
	var recipePut atomic.Bool
	crash := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind != oss.KindPut && op.Kind != oss.KindDelete {
			return oss.Do(next, op)
		}
		if recipePut.Load() {
			return op, fmt.Errorf("%w: crashed before %s", oss.ErrInjected, op)
		}
		op, err := oss.Do(next, op)
		if err == nil && strings.HasSuffix(op.Key, ".recipe") {
			recipePut.Store(true)
		}
		return op, err
	})
	repo := mustOpen(t, oss.With(mem, crash), cfg)
	olds, err := repo.Containers.List()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(repo).CompactSparse("f", st.Version, st.SparseContainers); !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("CompactSparse returned %v, want the injected crash", err)
	}

	rebooted := mustOpen(t, mem, cfg)
	r, err := rebooted.Recipes.GetRecipe("f", st.Version)
	if err != nil {
		t.Fatal(err)
	}
	copies := map[container.ID]bool{}
	r.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
		if !slices.Contains(olds, cr.Container) {
			copies[cr.Container] = true
		}
		return true
	})
	if len(copies) == 0 {
		t.Fatal("the crash left a recipe that names no copy; nothing to keep live")
	}
	ln, gn := lnode.New(rebooted, "l1"), New(rebooted)
	if _, err := gn.DeleteVersion("f", 0); err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{want[1], genData(41, len(want[1]))} {
		if _, err := ln.Backup("g", data); err != nil {
			t.Fatal(err)
		}
	}
	info, err := rebooted.Recipes.GetInfo("g", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(info.Garbage, func(id container.ID) bool { return copies[id] }) {
		t.Fatalf("g v0's garbage %v holds none of the copies %v; the deletion would test nothing", info.Garbage, copies)
	}
	if _, err := gn.DeleteVersion("g", 0); err != nil {
		t.Fatal(err)
	}
	verifyFilesAfterReboot(t, mem, cfg, map[string]map[int][]byte{"f": {1: want[1]}, "g": {1: genData(41, len(want[1]))}})
}

// TestFullSweepWaitsForRewritesInFlight: a reverse-dedup rewrite runs
// outside maintMu, and between its payload put and its meta switch the new
// payload is one no meta names. A sweep that starts then must not take it
// for an orphan: it waits the rewrite phase out, and afterwards every file
// restores and every payload is named. (Without the wait the sweep deletes
// the payload within the grace period and the switch names a lost object.)
func TestFullSweepWaitsForRewritesInFlight(t *testing.T) {
	tw := buildTwin(t, 4)
	want := map[string]map[int][]byte{}
	for _, f := range []string{"a", "b", "c"} {
		want[f] = map[int][]byte{0: restoreBytes(t, tw.ln, f, 0)}
	}
	var once sync.Once
	held, release := make(chan struct{}), make(chan struct{})
	var payloadPut atomic.Bool
	gate := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind == oss.KindPut && strings.HasSuffix(op.Key, ".data") {
			payloadPut.Store(true) // reverse dedup puts payloads only to rewrite
		}
		if op.Kind == oss.KindPut && strings.HasSuffix(op.Key, ".meta") && payloadPut.Load() {
			once.Do(func() { close(held) })
			<-release
		}
		return oss.Do(next, op)
	})
	repo, gn := openOver(t, oss.With(tw.mem, gate), tw.repo.Config, 4)
	rd := make(chan error, 1)
	go func() {
		_, err := gn.ReverseDedup(tw.new)
		rd <- err
	}()
	<-held
	swept := make(chan error, 1)
	go func() {
		_, err := gn.FullSweep()
		swept <- err
	}()
	select {
	case err := <-swept:
		t.Errorf("the sweep finished with a rewrite between its payload and its meta (err %v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := errors.Join(<-rd, <-swept); err != nil {
		t.Fatal(err)
	}
	for f, vs := range want {
		if got := restoreBytes(t, lnode.New(repo, "l1"), f, 0); !bytes.Equal(got, vs[0]) {
			t.Fatalf("%s v0 does not restore after the sweep", f)
		}
	}
	assertPayloadsNamed(t, "after the sweep", tw.mem, repo)
}

// stop holds the first put match selects once armed, until release closes.
type stop struct {
	armed         atomic.Bool
	match         func(key string) bool
	held, release chan struct{}
}

func newStop(match func(key string) bool) *stop {
	return &stop{match: match, held: make(chan struct{}), release: make(chan struct{})}
}

func (s *stop) at(op oss.Op) {
	if op.Kind == oss.KindPut && s.armed.Load() && s.match(op.Key) && s.armed.CompareAndSwap(true, false) {
		close(s.held)
		<-s.release
	}
}

// TestReverseDedupMarksKeepASwitch: a reverse-dedup pass's rewrites run
// outside maintMu, so the next pass can commit meanwhile, and its marks and
// the rewrites' switches update the same metas. Pass b runs to a stop in
// its rewrite phase, then pass c runs to one; b finishes, then c. Where b
// stops at its first switch and c at its index put, c's marks come after
// the switch: they must land on the meta b switched to — a copy taken
// before it names the payload b deleted, and loses a version for good.
// Where both stop at their first payload put, c's marks land before b's
// switches: each switch must carry them, or a chunk stays live where the
// index no longer names it. Every version restores, before and after a
// reopen, and every live chunk is its fingerprint's index entry.
func TestReverseDedupMarksKeepASwitch(t *testing.T) {
	isData := func(key string) bool { return strings.HasSuffix(key, ".data") }
	for _, tc := range []struct {
		name string
		b, c func(key string) bool
	}{
		{"marks-after-switch", func() func(string) bool {
			var sawPayload atomic.Bool
			return func(key string) bool {
				if isData(key) {
					sawPayload.Store(true)
				}
				return strings.HasSuffix(key, ".meta") && sawPayload.Load()
			}
		}(), func(key string) bool { return strings.HasPrefix(key, "gidx/") }},
		{"switch-after-marks", isData, isData},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stopB, stopC := newStop(tc.b), newStop(tc.c)
			// c copies a stretch of the second half of a's first 128 KiB: it
			// marks only the first container.
			fx := newTwoPasses(t, oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
				stopB.at(op)
				stopC.at(op)
				return oss.Do(next, op)
			}), [2]int{72 << 10, 120 << 10})
			done := make(chan error, 2)
			for _, p := range []struct {
				f    string
				stop *stop
			}{{"b", stopB}, {"c", stopC}} {
				p.stop.armed.Store(true)
				go func() { done <- fx.pass(p.f) }()
				<-p.stop.held
			}
			close(stopB.release)
			errB := <-done
			close(stopC.release)
			if err := errors.Join(errB, <-done); err != nil {
				t.Fatal(err)
			}
			fx.check(t)
		})
	}
}

// TestReverseDedupRewritesOfOneContainer: two reverse-dedup passes both
// rewrite a's first container. b stops at its first payload put, having
// read the container; c commits, its marks landing on the meta b read, and
// stops at its mark of a's second container. b switches the first one and
// deletes the payload c planned from; then c runs on. Its rewrite of that
// container is lost, as one swept meanwhile is — the plan's spans and
// chunks are those of a deleted payload — and both passes succeed.
func TestReverseDedupRewritesOfOneContainer(t *testing.T) {
	stopB, stopC := newStop(func(key string) bool { return strings.HasSuffix(key, ".data") }), newStop(func(string) bool { return true })
	var cMetaPuts atomic.Int32
	var deleteArmed atomic.Bool
	deleted := make(chan struct{})
	// c copies stretches of the second halves of a's first two 128 KiB: with
	// b's marks, both containers are past the stale threshold for both passes.
	fx := newTwoPasses(t, oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		stopB.at(op)
		if op.Kind == oss.KindPut && strings.HasSuffix(op.Key, ".meta") && stopC.armed.Load() && cMetaPuts.Add(1) == 2 {
			stopC.at(op)
		}
		op, err := oss.Do(next, op)
		if op.Kind == oss.KindDelete && strings.HasSuffix(op.Key, ".data") && deleteArmed.CompareAndSwap(true, false) {
			close(deleted)
		}
		return op, err
	}), [2]int{72 << 10, 120 << 10}, [2]int{200 << 10, 248 << 10})

	done := make(chan error, 2)
	stopB.armed.Store(true)
	go func() { done <- fx.pass("b") }()
	<-stopB.held
	stopC.armed.Store(true)
	go func() { done <- fx.pass("c") }()
	<-stopC.held
	deleteArmed.Store(true)
	close(stopB.release)
	select {
	case <-deleted: // b switched the first container and deleted what c planned from
	case err := <-done:
		t.Fatalf("a pass ended before b switched the first container: %v", err)
	}
	close(stopC.release)
	if err := errors.Join(<-done, <-done); err != nil {
		t.Fatal(err)
	}
	fx.check(t)
}

// twoPasses is the fixture of the tests above: a, b and c are backed up
// with no base, so b and c store copies of a's chunks, and a is
// reverse-deduplicated; pass runs reverse dedup over b's or c's containers.
type twoPasses struct {
	repo *core.Repo
	gn   *GNode
	mem  *oss.Mem
	cfg  core.Config
	want map[string]map[int][]byte
	news map[string][]container.ID
}

// newTwoPasses builds the fixture over layer: a is 1 MiB, b copies the
// first half of each 128 KiB of a, c the ranges of a given.
func newTwoPasses(t *testing.T, layer oss.Layer, cRanges ...[2]int) *twoPasses {
	t.Helper()
	fx := &twoPasses{cfg: testConfig(), mem: oss.NewMem(), news: map[string][]container.ID{}}
	fx.cfg.SimilarityMinScore = 1.1 // no base
	fx.repo, fx.gn = openOver(t, oss.With(fx.mem, layer), fx.cfg, -1)
	ln := lnode.New(fx.repo, "l0")
	a := genData(95, 1<<20)
	var b, c []byte
	for w := 0; w < len(a); w += 128 << 10 {
		b = append(b, a[w:w+64<<10]...)
	}
	for _, r := range cRanges {
		c = append(c, a[r[0]:r[1]]...)
	}
	fx.want = map[string]map[int][]byte{"a": {0: a}, "b": {0: b}, "c": {0: c}}
	for _, f := range []string{"a", "b", "c"} {
		st, err := ln.Backup(f, fx.want[f][0])
		if err != nil {
			t.Fatal(err)
		}
		fx.news[f] = st.NewContainers
	}
	if _, err := fx.gn.ReverseDedup(fx.news["a"]); err != nil {
		t.Fatal(err)
	}
	return fx
}

// pass reverse-dedups f's containers; one that marks nothing is an error.
func (fx *twoPasses) pass(f string) error {
	st, err := fx.gn.ReverseDedup(fx.news[f])
	if err == nil && st.DuplicatesRemoved == 0 {
		err = fmt.Errorf("pass %s marked nothing: %+v", f, st)
	}
	return err
}

// check restores every version, before and after a reopen, and holds every
// live chunk to its fingerprint's index entry.
func (fx *twoPasses) check(t *testing.T) {
	t.Helper()
	for f, vs := range fx.want {
		if err := restoreMatches(lnode.New(fx.repo, "l1"), f, 0, vs[0]); err != nil {
			t.Errorf("%s v0: %v", f, err)
		}
	}
	assertLiveIsCanonical(t, verifyFilesAfterReboot(t, fx.mem, fx.cfg, fx.want))
}

// assertLiveIsCanonical fails unless every live chunk of every container is
// where the global index says its fingerprint lives: what holds once
// reverse dedup has run over every container of files that share nothing
// but copies of each other's chunks.
func assertLiveIsCanonical(t *testing.T, repo *core.Repo) {
	t.Helper()
	var fps []fingerprint.FP
	var homes []container.ID
	for _, m := range listedMetas(t, repo) {
		for _, cm := range m.Chunks {
			if !cm.Deleted {
				fps, homes = append(fps, cm.FP), append(homes, m.ID)
			}
		}
	}
	ids, found, _, err := repo.Global.GetBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fps {
		if !found[i] || ids[i] != homes[i] {
			t.Fatalf("chunk %s is live in %s, the index names %s (found %v): a mark was lost", fps[i].Short(), homes[i], ids[i], found[i])
		}
	}
}

// TestFullSweepReclaimsOrphanedPayload crashes a backup between a
// container's data put and its metadata put, reboots, and sweeps: the
// payload no list shows is deleted, and the sweep counts its bytes.
func TestFullSweepReclaimsOrphanedPayload(t *testing.T) {
	cfg := testConfig()
	base := oss.NewMem()
	if _, err := core.OpenRepo(base, cfg); err != nil { // the repository header
		t.Fatal(err)
	}
	oss.CrashAtEvery(t, base, 1, 100, func(s oss.Store) error {
		return backupOver(t, s, cfg, genData(1, 512<<10))
	}, func(mem *oss.Mem, n int, err error) bool {
		if err == nil {
			t.Fatalf("budget %d: backup completed before a payload was orphaned", n)
		}
		rebooted := mustOpen(t, mem, cfg)
		orphans := unnamedPayloads(t, mem, rebooted)
		if len(orphans) == 0 {
			return false // the crash fell before a payload put or after its metadata put
		}
		orphan := orphans[0]
		size, err := mem.Head(orphan)
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
		return true
	})
}

// backupOver opens the repository on s and backs data up as file "f".
func backupOver(t *testing.T, s oss.Store, cfg core.Config, data []byte) error {
	_, err := lnode.New(mustOpen(t, s, cfg), "l0").Backup("f", data)
	return err
}

// TestFullSweepReclaimsUncataloguedVersion crashes a backup after its
// recipe, recipe index and sketch have landed and before its catalog entry —
// the objects a deletion crashed after its commit leaves too — reboots and
// sweeps: the three are gone, and the version that committed still restores.
func TestFullSweepReclaimsUncataloguedVersion(t *testing.T) {
	cfg := testConfig()
	v0 := genData(1, 512<<10)
	base := oss.NewMem()
	if err := backupOver(t, base, cfg, v0); err != nil {
		t.Fatal(err)
	}
	hex := fmt.Sprintf("%x", "f")
	objects := []string{"recipes/" + hex + "/00000001.recipe", "recipes/" + hex + "/00000001.index", "simindex/" + hex + "/00000001"}
	oss.CrashAtEvery(t, base, 1, 200, func(s oss.Store) error {
		return backupOver(t, s, cfg, genData(2, 512<<10))
	}, func(mem *oss.Mem, n int, err error) bool {
		if err == nil {
			t.Fatalf("budget %d: backup completed before the crash fell between its sketch and catalog puts", n)
		}
		for _, k := range objects {
			if _, err := mem.Head(k); err != nil {
				return false // the crash fell before the last of them
			}
		}
		verifyFilesAfterReboot(t, mem, cfg, map[string]map[int][]byte{"f": {0: v0}}) // restores v0, then sweeps
		for _, k := range objects {
			if _, err := mem.Head(k); !errors.Is(err, oss.ErrNotFound) {
				t.Errorf("after the sweep %s: %v, want it gone", k, err)
			}
		}
		return true
	})
}

// TestFullSweepKeepsPayloadOfUnreadableMeta: the orphan rule reads every
// live meta to learn which payload it names, and a rewritten container's
// payload is not under its own ID. Here that container's meta drops out of
// the cache as the sweep lists the namespace and its next GET fails: the
// sweep fails instead of taking the payload for an orphan, the payload is
// still there, every file restores and the next sweep completes.
func TestFullSweepKeepsPayloadOfUnreadableMeta(t *testing.T) {
	tw := buildTwin(t, -1)
	want := map[string]map[int][]byte{}
	for _, f := range []string{"a", "b", "c"} {
		want[f] = map[int][]byte{0: restoreBytes(t, tw.ln, f, 0)}
	}
	if st, err := tw.gn.ReverseDedup(tw.new); err != nil || st.ContainersRewritten == 0 {
		t.Fatalf("reverse dedup: %+v, %v; want a rewrite", st, err)
	}
	if _, err := tw.gn.FullSweep(); err != nil { // what is left is live: the sweep keeps it
		t.Fatal(err)
	}
	var m *container.Meta
	for _, lm := range listedMetas(t, tw.repo) {
		if lm.Payload != lm.ID {
			m = lm
			break
		}
	}
	if m == nil {
		t.Fatal("no container was switched to a new payload")
	}
	victim := m.ID

	var repo *core.Repo
	var sweeping, armed atomic.Bool
	fault := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		switch {
		case op.Kind == oss.KindList && op.Key == container.Prefix && sweeping.Load():
			repo.Containers.InvalidateMeta(victim)
			armed.Store(true)
		case op.Kind == oss.KindGet && op.Key == container.MetaKey(victim) && armed.CompareAndSwap(true, false):
			return op, fmt.Errorf("%w: get %s", oss.ErrInjected, op.Key)
		}
		return oss.Do(next, op)
	})
	repo, gn := openOver(t, oss.With(tw.mem, fault), tw.repo.Config, -1)
	sweeping.Store(true)
	if _, err := gn.FullSweep(); !errors.Is(err, oss.ErrInjected) {
		t.Errorf("sweep over an unreadable meta returned %v, want the injected fault", err)
	}
	if _, err := tw.mem.Head(container.DataKey(m.Payload)); err != nil {
		t.Fatalf("payload %s of %s after the failed sweep: %v", m.Payload, victim, err)
	}
	swept := verifyFilesAfterReboot(t, tw.mem, tw.repo.Config, want)
	assertPayloadsNamed(t, "after the second sweep", tw.mem, swept)
}
