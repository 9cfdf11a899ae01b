package gnode

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

// A drop — DeleteVersion's garbage, FullSweep's unmarked containers — is one
// index commit: one lookup over the distinct fingerprints of every container
// in the set, one batch deleting the entries that name one of them, one
// Sync, and only then the objects. These tests pin what that buys: the
// traffic on a replicated index, and the invariant a crash cannot break.

// twoVersions backs up v0 and then v1 of file "f" on a fresh store under
// cfg, each optimized (which puts its chunks in the index). When they share
// no chunk, v1's backup makes every container v0 wrote a garbage candidate
// of v0.
func twoVersions(t *testing.T, cfg core.Config, v0, v1 []byte) *oss.Mem {
	t.Helper()
	mem := oss.NewMem()
	repo := mustOpen(t, mem, cfg)
	ln, gn := lnode.New(repo, "l0"), New(repo)
	for _, data := range [][]byte{v0, v1} {
		st, err := ln.Backup("f", data)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := gn.Optimize("f", st.Version, st.NewContainers, st.SparseContainers); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

// uncatalogueV0 removes v0's recipe and catalog entry behind the G-node's
// back, as a lost peer's deletion leaves them, so that no mark keeps a
// container v0 wrote.
func uncatalogueV0(t *testing.T, mem *oss.Mem, cfg core.Config) {
	t.Helper()
	repo, err := core.OpenRepo(mem, cfg)
	if err == nil {
		err = errors.Join(repo.Recipes.DeleteRecipe("f", 0), repo.Recipes.DeleteInfo("f", 0))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// assertIndexSound holds the invariant that no index entry points at a
// deleted container or a dead copy: every listed container's meta reads,
// and every entry names a listed container whose meta lists the
// fingerprint live.
func assertIndexSound(t *testing.T, what string, repo *core.Repo) {
	t.Helper()
	metas := map[container.ID]*container.Meta{}
	for _, m := range listedMetas(t, repo) {
		metas[m.ID] = m
	}
	var stale []string
	if err := repo.Global.Scan(func(fp fingerprint.FP, id container.ID) bool {
		if m := metas[id]; m == nil || m.Find(fp) == nil || m.Find(fp).Deleted {
			stale = append(stale, fmt.Sprintf("%s -> %s", fp.Short(), id))
		}
		return true
	}); err != nil {
		t.Fatalf("%s: scan the index: %v", what, err)
	}
	if len(stale) > 0 {
		t.Fatalf("%s: %d index entries name a container that does not list them, first %s", what, len(stale), stale[0])
	}
}

// listedMetas reads the meta of every listed container of repo, in ID
// order, failing t if one does not read.
func listedMetas(t *testing.T, repo *core.Repo) []*container.Meta {
	t.Helper()
	ids, err := repo.Containers.List()
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]*container.Meta, len(ids))
	for i, id := range ids {
		if metas[i], err = repo.Containers.ReadMeta(id); err != nil {
			t.Fatalf("listed container %s: %v", id, err)
		}
	}
	return metas
}

// unnamedPayloads lists the payload keys of mem — plain data objects, and
// every key under ec/ — that are not the data object of a live container's
// meta, failing t if a listed container's meta does not read.
func unnamedPayloads(t *testing.T, mem *oss.Mem, repo *core.Repo) []string {
	t.Helper()
	named := map[string]bool{}
	for _, m := range listedMetas(t, repo) {
		for _, k := range m.DataKeys() {
			named[k] = true
		}
	}
	keys, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, k := range keys {
		logical, striped := k, strings.HasPrefix(k, "ec/")
		if striped { // ec/b<i>/<key>
			logical = k[3+strings.IndexByte(k[3:], '/')+1:]
		}
		if !named[logical] && (striped || strings.HasPrefix(k, container.Prefix) && strings.HasSuffix(k, ".data")) {
			out = append(out, k)
		}
	}
	return out
}

// assertVersionsCatalogued holds a swept store to its catalog: every recipe,
// recipe index and sketch belongs to a version that has a catalog entry.
func assertVersionsCatalogued(t *testing.T, what string, mem *oss.Mem) {
	t.Helper()
	keys, err := mem.List("")
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]bool{} // "<hex file>/<version>"
	for _, k := range keys {
		if name, ok := strings.CutPrefix(k, "catalog/"); ok {
			entries[strings.TrimSuffix(name, ".info")] = true
		}
	}
	for _, k := range keys {
		name, recipe := strings.CutPrefix(k, "recipes/")
		name, sketch := strings.CutPrefix(name, "simindex/")
		name = strings.TrimSuffix(strings.TrimSuffix(name, ".recipe"), ".index")
		if (recipe || sketch) && !entries[name] {
			t.Fatalf("%s: %s belongs to a version with no catalog entry", what, k)
		}
	}
}

// assertPayloadsNamed holds a swept store to the write-once layout: every
// listed container's meta reads, and every payload — a plain data object,
// or any key under ec/ — is the one a live meta names.
func assertPayloadsNamed(t *testing.T, what string, mem *oss.Mem, repo *core.Repo) {
	t.Helper()
	if left := unnamedPayloads(t, mem, repo); len(left) > 0 {
		t.Fatalf("%s: %d payload objects no live meta names, first %s", what, len(left), left[0])
	}
}

// TestDeleteVersionFailsOnAnUnreadablePin: reverse dedup drains the chunks
// file "a" shares with "b" out of a's containers, so a's recipe reaches them
// through the index, in b's. Deleting b's first version makes those
// containers garbage, and GC pins them from their metas. One GET of such a
// meta failing fails the deletion after its commit: the container is not
// dropped because a second read of its meta succeeds. The sweep after the
// reboot reaches it through a's redirects and keeps it, and "a" restores
// throughout.
func TestDeleteVersionFailsOnAnUnreadablePin(t *testing.T) {
	ln, gn, repo, mem := setup(t, twinConfig(-1)) // the L-node misses cross-file duplicates
	shared := genData(30, 512<<10)
	var st *lnode.BackupStats
	for _, f := range []string{"a", "b"} {
		var err error
		if st, err = ln.Backup(f, shared); err != nil {
			t.Fatal(err)
		}
		if rd, err := gn.ReverseDedup(st.NewContainers); err != nil || f == "b" && rd.DuplicatesRemoved == 0 {
			t.Fatalf("reverse dedup of %s: %+v, %v", f, rd, err)
		}
	}
	if _, err := ln.Backup("b", genData(31, 512<<10)); err != nil { // b v0's containers become its garbage
		t.Fatal(err)
	}
	pin := container.MetaKey(st.NewContainers[0])
	var failed atomic.Bool
	fault := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind == oss.KindGet && op.Key == pin && failed.CompareAndSwap(false, true) {
			return op, fmt.Errorf("%w: get %s", oss.ErrInjected, op.Key)
		}
		return oss.Do(next, op)
	})
	repo2, gn2 := openOver(t, oss.With(mem, fault), repo.Config, -1)
	if _, err := gn2.DeleteVersion("b", 0); !errors.Is(err, oss.ErrInjected) {
		t.Errorf("deletion over an unreadable pin returned %v, want the injected fault", err)
	}
	if !bytes.Equal(restoreBytes(t, lnode.New(repo2, "l1"), "a", 0), shared) {
		t.Fatal(`"a" does not restore after the failed deletion`)
	}
	rebooted, err := core.OpenRepo(mem, repo.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restoreBytes(t, lnode.New(rebooted, "l2"), "a", 0), shared) {
		t.Fatal(`"a" does not restore after the reboot`)
	}
	if vs, err := rebooted.Recipes.Versions("b"); err != nil || slices.Contains(vs, 0) {
		t.Fatalf("b's versions after the failed deletion: %v, %v; want v0 gone, its catalog entry the commit", vs, err)
	}
	swept := verifyFilesAfterReboot(t, mem, repo.Config, map[string]map[int][]byte{"a": {0: shared}})
	if !bytes.Equal(restoreBytes(t, lnode.New(swept, "l3"), "a", 0), shared) {
		t.Fatal(`"a" does not restore after the sweep`)
	}
	assertPayloadsNamed(t, "after the sweep", mem, swept)
}

// ecLayout is RS(4+2), the striped layout the crash tests add to the plain
// one: K > M+1, where a torn overwrite could leave no side whole.
func ecLayout(cfg core.Config) core.Config {
	cfg.ECDataShards, cfg.ECParityShards = 4, 2
	return cfg
}

// TestDeleteVersionCrashAtEveryMutation kills a deletion that drops
// garbage — two versions with no chunk in common, so every container v0
// wrote is a candidate — before every put and delete it issues. The
// catalog delete is the commit: after each reboot v0 is listed and whole
// or not listed (sweptAfterReboot), and the sweep leaves no garbage and no
// recipe of v0.
func TestDeleteVersionCrashAtEveryMutation(t *testing.T) {
	for _, cfg := range []core.Config{core.DefaultConfig(), ecLayout(core.DefaultConfig())} {
		t.Run(layoutName(cfg), func(t *testing.T) {
			t.Parallel()
			want := map[int][]byte{0: genData(20, 8<<20), 1: genData(21, 8<<20)}
			baseline := twoVersions(t, cfg, want[0], want[1])

			oss.CrashAtEvery(t, baseline, crashStride(cfg), 300, func(s oss.Store) error {
				// The open spends none of the budget: it mutates nothing.
				st, err := New(mustOpen(t, s, cfg)).DeleteVersion("f", 0)
				if err == nil && (st.GarbageCandidates < 2 || st.ContainersCollected != st.GarbageCandidates || st.IndexEntriesRemoved == 0) {
					t.Fatalf("degenerate deletion, nothing to crash inside a drop: %+v", st)
				}
				return err
			}, sweptAfterReboot(t, cfg, want))
		})
	}
}

// sweptAfterReboot is the check of a crash loop over a pass that drops
// containers from two versions of "f". After the reboot the index names
// only containers that list the fingerprint, every version listed is one
// of want and restores, v1 among them, and the sweep converges, index
// still sound, leaving no payload that no meta names.
func sweptAfterReboot(t *testing.T, cfg core.Config, want map[int][]byte) func(*oss.Mem, int, error) bool {
	return func(mem *oss.Mem, n int, _ error) bool {
		repo := mustOpen(t, mem, cfg)
		assertIndexSound(t, fmt.Sprintf("budget %d, rebooted", n), repo)
		vs, err := repo.Recipes.Versions("f")
		if err != nil {
			t.Fatal(err)
		}
		surviving := map[int][]byte{}
		for _, v := range vs {
			data, ok := want[v]
			if !ok {
				t.Fatalf("budget %d: unknown version %d after the crash", n, v)
			}
			surviving[v] = data
		}
		if _, ok := surviving[1]; !ok {
			t.Fatalf("budget %d: v1 is gone after the crash", n)
		}
		swept := verifyFilesAfterReboot(t, mem, cfg, map[string]map[int][]byte{"f": surviving})
		assertIndexSound(t, fmt.Sprintf("budget %d, swept", n), swept)
		assertPayloadsNamed(t, fmt.Sprintf("budget %d, swept", n), mem, swept)
		return false
	}
}

// layoutName names a crash test's subtest by its layout.
func layoutName(cfg core.Config) string {
	if cfg.ECDataShards == 0 {
		return "plain"
	}
	return fmt.Sprintf("%d+%d", cfg.ECDataShards, cfg.ECParityShards)
}

// TestFullSweepCrashAtEveryMutation kills a sweep that drops containers —
// v0's recipe and catalog entry removed behind the G-node's back, as a lost
// peer's deletion leaves them, so every container v0 wrote is unmarked —
// before every put and delete it issues, and holds every reboot to the
// index invariant before and after the next sweep, and the swept store to
// the write-once layout.
func TestFullSweepCrashAtEveryMutation(t *testing.T) {
	for _, cfg := range []core.Config{core.DefaultConfig(), ecLayout(core.DefaultConfig())} {
		t.Run(layoutName(cfg), func(t *testing.T) {
			t.Parallel()
			want := map[int][]byte{0: genData(22, 6<<20), 1: genData(23, 6<<20)}
			baseline := twoVersions(t, cfg, want[0], want[1])
			uncatalogueV0(t, baseline, cfg)

			oss.CrashAtEvery(t, baseline, crashStride(cfg), 100, func(s oss.Store) error {
				st, err := New(mustOpen(t, s, cfg)).FullSweep()
				if err == nil && st.ContainersSwept < 2 {
					t.Fatalf("degenerate sweep, nothing to crash inside a drop: %+v", st)
				}
				return err
			}, sweptAfterReboot(t, cfg, map[int][]byte{1: want[1]}))
		})
	}
}

// replLayouts are the replicated index layouts a drop's traffic is pinned on.
var replLayouts = []struct {
	name             string
	shards, replicas int
}{{"1x3", 1, 3}, {"2x3", 2, 3}}

// TestDropIsOneIndexCommit deletes a version whose containers list
// fingerprints twice (v0 is one block written twice) on a replicated index:
// the drop appends at most one log record per shard — not one per
// fingerprint — and syncs each replica once, and a fingerprint a container
// lists twice is removed, and counted, once.
func TestDropIsOneIndexCommit(t *testing.T) {
	block := genData(30, 3<<20)
	for _, layout := range replLayouts {
		t.Run(layout.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.GlobalShards, cfg.GlobalReplicas = layout.shards, layout.replicas
			mem := twoVersions(t, cfg, append(append([]byte(nil), block...), block...), genData(31, 2<<20))
			var rec oss.Recorder
			repo := mustOpen(t, oss.With(mem, &rec), cfg)
			// What the drop must remove: the distinct fingerprints v0's
			// containers list, and how many of them a container lists twice.
			info, err := repo.Recipes.GetInfo("f", 0)
			if err != nil {
				t.Fatal(err)
			}
			distinct, twice := map[fingerprint.FP]bool{}, 0
			for _, id := range info.Garbage {
				m, err := repo.Containers.ReadMeta(id)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[fingerprint.FP]bool{}
				for _, cm := range m.Chunks {
					if seen[cm.FP] {
						twice++
					}
					seen[cm.FP], distinct[cm.FP] = true, true
				}
			}
			if len(info.Garbage) < 2 || twice == 0 {
				t.Fatalf("degenerate fixture: %d candidates, %d fingerprints listed twice", len(info.Garbage), twice)
			}

			rec.Take()
			st, err := New(repo).DeleteVersion("f", 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.ContainersCollected != len(info.Garbage) || st.IndexEntriesRemoved != len(distinct) {
				t.Fatalf("%+v, want %d containers collected and %d entries removed", *st, len(info.Garbage), len(distinct))
			}
			appends, syncs := 0, 0
			for _, q := range rec.Take() {
				if q.Kind == oss.KindPut && strings.Contains(q.Key, "/log/") {
					appends++
				}
				if q.Kind == oss.KindPut && strings.Contains(q.Key, "/wal/") {
					syncs++
				}
			}
			if appends > layout.shards || syncs > layout.shards*layout.replicas {
				t.Fatalf("the drop appended %d log records and put %d replica WAL segments, want at most %d and %d",
					appends, syncs, layout.shards, layout.shards*layout.replicas)
			}
			assertIndexSound(t, "after the drop", repo)
		})
	}
}

// TestFullSweepSameAtAnyWidth sweeps the same unmarked containers at
// MaintWorkers 1 and 4 on a replicated index: equal AuditStats, indexes
// that scan equal, and every index object — log records, replica WAL
// segments — byte for byte the same, since the drop is one batch whatever
// the width.
func TestFullSweepSameAtAnyWidth(t *testing.T) {
	for _, layout := range replLayouts {
		t.Run(layout.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.GlobalShards, cfg.GlobalReplicas = layout.shards, layout.replicas
			baseline := twoVersions(t, cfg, genData(32, 6<<20), genData(33, 2<<20))
			uncatalogueV0(t, baseline, cfg)
			type side struct {
				stats *AuditStats
				index map[fingerprint.FP]container.ID
				gidx  map[string][]byte
			}
			sweep := func(workers int) side {
				mem := baseline.Clone()
				repo, gn := openOver(t, mem, cfg, workers)
				st, err := gn.FullSweep()
				if err != nil {
					t.Fatal(err)
				}
				if err := repo.Global.Sync(); err != nil {
					t.Fatal(err)
				}
				return side{stats: st, index: indexDump(t, repo), gidx: prefixDump(t, mem, "gidx/")}
			}
			one, four := sweep(1), sweep(4)
			if one.stats.ContainersSwept < 2 {
				t.Fatalf("degenerate sweep: %+v", one.stats)
			}
			if !reflect.DeepEqual(one.stats, four.stats) {
				t.Errorf("AuditStats diverge: width 1 %+v, width 4 %+v", one.stats, four.stats)
			}
			if !reflect.DeepEqual(one.index, four.index) {
				t.Errorf("indexes diverge: width 1 %d entries, width 4 %d", len(one.index), len(four.index))
			}
			if !reflect.DeepEqual(one.gidx, four.gidx) {
				t.Errorf("index objects diverge between widths 1 and 4 (%d and %d objects)", len(one.gidx), len(four.gidx))
			}
		})
	}
}
