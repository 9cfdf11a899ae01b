package gnode

import (
	"reflect"
	"sort"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/lnode"
)

// buildTwinLayout is buildTwin with an index layout: shards G-shards,
// each replicated across `replicas` kvstores. Workload and data are
// byte-identical to buildTwin, so any layout must converge to the same
// repo state.
func buildTwinLayout(t *testing.T, workers, shards, replicas int) *twin {
	t.Helper()
	cfg := twinConfig(workers)
	cfg.GlobalShards = shards
	cfg.GlobalReplicas = replicas
	return buildTwinCfg(t, cfg)
}

// TestShardedMaintenanceMatchesSingle is the clustered-G-node twin
// contract: reverse dedup and a full mark-and-sweep over an N-shard
// (optionally quorum-replicated) global index must leave exactly the
// state the single-node serial pass leaves — same stats, same index
// dump, same container metadata, same restored bytes.
func TestShardedMaintenanceMatchesSingle(t *testing.T) {
	serial := buildTwin(t, -1) // single shard, single replica, serial pool
	layouts := map[string]*twin{
		"4-shard":    buildTwinLayout(t, 4, 4, 1),
		"4-shard-3x": buildTwinLayout(t, 4, 4, 3),
	}

	ss, err := serial.gn.ReverseDedup(serial.new)
	if err != nil {
		t.Fatal(err)
	}
	if ss.DuplicatesRemoved == 0 || ss.ContainersRewritten == 0 {
		t.Fatalf("degenerate workload, nothing deduplicated: %+v", ss)
	}
	for name, tw := range layouts {
		ps, err := tw.gn.ReverseDedup(tw.new)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(ss, ps) {
			t.Errorf("%s: dedup stats diverge:\nserial:  %+v\nsharded: %+v", name, ss, ps)
		}
		assertTwinsEqual(t, serial, tw, []string{"a", "b", "c"})
	}

	// Delete a version and sweep on every layout.
	if _, err := serial.gn.DeleteVersion("c", 0); err != nil {
		t.Fatal(err)
	}
	sw, err := serial.gn.FullSweep()
	if err != nil {
		t.Fatal(err)
	}
	if sw.ContainersSwept == 0 {
		t.Fatalf("degenerate sweep, nothing reclaimed: %+v", sw)
	}
	for name, tw := range layouts {
		if _, err := tw.gn.DeleteVersion("c", 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pw, err := tw.gn.FullSweep()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(sw, pw) {
			t.Errorf("%s: sweep stats diverge:\nserial:  %+v\nsharded: %+v", name, sw, pw)
		}
		assertTwinsEqual(t, serial, tw, []string{"a", "b"})
	}
}

// TestShardedScrubMatchesSingle corrupts both twins identically and
// requires the sharded, replicated index to reach the serial scrub's
// exact verdicts (repairs, repoints, quarantine decisions).
func TestShardedScrubMatchesSingle(t *testing.T) {
	serial := buildTwin(t, -1)
	sharded := buildTwinLayout(t, 4, 4, 3)

	for _, tw := range []*twin{serial, sharded} {
		if _, err := tw.gn.ReverseDedup(tw.new); err != nil {
			t.Fatal(err)
		}
		all, err := tw.repo.Containers.List()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		var ids []container.ID
		for _, id := range all {
			m, err := tw.repo.Containers.ReadMeta(id)
			if err != nil {
				t.Fatal(err)
			}
			for i := range m.Chunks {
				if !m.Chunks[i].Deleted {
					ids = append(ids, id)
					break
				}
			}
		}
		if len(ids) < 2 {
			t.Fatalf("only %d containers with live chunks", len(ids))
		}
		flipChunkAtRest(t, tw.mem, tw.repo, ids[0], firstLiveChunk(t, tw.repo, ids[0]))
		flipChunkAtRest(t, tw.mem, tw.repo, ids[len(ids)-1], firstLiveChunk(t, tw.repo, ids[len(ids)-1]))
	}

	ss, err := serial.gn.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := sharded.gn.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ss, ps) {
		t.Errorf("scrub stats diverge:\nserial:  %+v\nsharded: %+v", ss, ps)
	}
	if ss.CorruptChunks == 0 {
		t.Fatalf("corruption not detected: %+v", ss)
	}
	si, pi := indexDump(t, serial.repo), indexDump(t, sharded.repo)
	if !reflect.DeepEqual(si, pi) {
		t.Errorf("global index diverges after scrub: serial %d entries, sharded %d", len(si), len(pi))
	}
	if sm, pm := metaDump(t, serial.repo), metaDump(t, sharded.repo); sm != pm {
		t.Errorf("container metadata diverges after scrub:\n--- serial ---\n%s--- sharded ---\n%s", sm, pm)
	}
}

// TestReopenShardedRepo closes a replicated repo mid-life and reopens it
// through core.OpenRepo, exercising group log recovery; the reopened repo
// must serve identical restores.
func TestReopenShardedRepo(t *testing.T) {
	tw := buildTwinLayout(t, 4, 4, 3)
	if _, err := tw.gn.ReverseDedup(tw.new); err != nil {
		t.Fatal(err)
	}
	want := indexDump(t, tw.repo)
	a := restoreBytes(t, tw.ln, "a", 0)
	if err := tw.repo.Global.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.SimilarityMinScore = 1.1
	cfg.MaintWorkers = 4
	cfg.GlobalShards = 4
	cfg.GlobalReplicas = 3
	repo := mustOpen(t, tw.mem, cfg)
	if len(repo.ReplGroups) != 4 {
		t.Fatalf("reopened repo has %d replica groups, want 4", len(repo.ReplGroups))
	}
	if got := indexDump(t, repo); !reflect.DeepEqual(got, want) {
		t.Fatalf("index diverges after reopen: %d entries, want %d", len(got), len(want))
	}
	ln2 := lnode.New(repo, "l0")
	if got := restoreBytes(t, ln2, "a", 0); string(got) != string(a) {
		t.Fatal("restore diverges after reopen")
	}
}
