package gnode

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/kvstore"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

// twin is one of two identically seeded repos maintained at different
// worker widths. rec sees every request its repo issues.
type twin struct {
	ln   *lnode.LNode
	gn   *GNode
	repo *core.Repo
	mem  *oss.Mem
	rec  oss.Recorder
	new  []container.ID
}

// twinConfig is the configuration buildTwin seeds a twin under.
func twinConfig(workers int) core.Config {
	cfg := testConfig()
	cfg.SimilarityMinScore = 1.1 // force the L-node to miss cross-file dups
	cfg.MaintWorkers = workers
	return cfg
}

// buildTwin seeds a repo with cross-file duplicate backups the L-node is
// forced to miss, so reverse dedup has marks, repoints, and rewrites to
// do. Deterministic: every twin holds byte-identical state.
func buildTwin(t *testing.T, workers int) *twin { return buildTwinCfg(t, twinConfig(workers)) }

// buildTwinCfg is buildTwin under cfg, which may differ from twinConfig
// in what does not change the bytes backed up: widths, index layout, costs.
func buildTwinCfg(t *testing.T, cfg core.Config) *twin {
	t.Helper()
	tw := &twin{mem: oss.NewMem()}
	tw.repo, tw.gn = openOver(t, oss.With(tw.mem, &tw.rec), cfg, cfg.MaintWorkers)
	tw.ln = lnode.New(tw.repo, "l0")

	shared := genData(5, 1<<20)
	other := genData(6, 448<<10) // ends mid-container: reverse dedup leaves that container half live
	mixed := append(append([]byte(nil), other...), shared[:512<<10]...)
	for _, f := range []struct {
		name string
		data []byte
	}{{"a", shared}, {"b", mixed}, {"c", shared}} {
		st, err := tw.ln.Backup(f.name, f.data)
		if err != nil {
			t.Fatalf("backup %s: %v", f.name, err)
		}
		tw.new = append(tw.new, st.NewContainers...)
	}
	return tw
}

// indexDump snapshots the global index.
func indexDump(t *testing.T, repo *core.Repo) map[fingerprint.FP]container.ID {
	t.Helper()
	m := map[fingerprint.FP]container.ID{}
	if err := repo.Global.Scan(func(fp fingerprint.FP, id container.ID) bool {
		m[fp] = id
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// metaDump serialises every container's metadata in ID order.
func metaDump(t *testing.T, repo *core.Repo) string {
	t.Helper()
	var buf bytes.Buffer
	for _, m := range listedMetas(t, repo) {
		fmt.Fprintf(&buf, "%s size=%d\n", m.ID, m.DataSize)
		for i := range m.Chunks {
			cm := &m.Chunks[i]
			fmt.Fprintf(&buf, "  %s off=%d size=%d deleted=%v\n", cm.FP.Short(), cm.Offset, cm.Size, cm.Deleted)
		}
	}
	return buf.String()
}

func assertTwinsEqual(t *testing.T, serial, parallel *twin, files []string) {
	t.Helper()
	si, pi := indexDump(t, serial.repo), indexDump(t, parallel.repo)
	if !reflect.DeepEqual(si, pi) {
		t.Errorf("global index diverges: serial %d entries, parallel %d", len(si), len(pi))
	}
	sm, pm := metaDump(t, serial.repo), metaDump(t, parallel.repo)
	if sm != pm {
		t.Errorf("container metadata diverges:\n--- serial ---\n%s--- parallel ---\n%s", sm, pm)
	}
	for _, f := range files {
		sb := restoreBytes(t, serial.ln, f, 0)
		pb := restoreBytes(t, parallel.ln, f, 0)
		if !bytes.Equal(sb, pb) {
			t.Errorf("file %s restores diverge", f)
		}
	}
}

// TestReverseDedupParallelMatchesSerial is the determinism contract of
// the fan-out pipeline: any MaintWorkers width must produce bit-identical
// stats, index state, container metadata, and restored bytes — also when
// the rewrites' reads come out ranged and cut (rangedCosts).
func TestReverseDedupParallelMatchesSerial(t *testing.T) {
	for _, ranged := range []bool{false, true} {
		t.Run(fmt.Sprintf("ranged=%v", ranged), func(t *testing.T) {
			build := func(workers int) *twin {
				cfg := twinConfig(workers)
				if ranged {
					rangedCosts(&cfg)
				}
				return buildTwinCfg(t, cfg)
			}
			serial := build(-1) // negative → strictly serial pool
			parallel := build(8)
			sizes := payloadMetas(t, parallel.repo)
			parallel.rec.Take()

			ss, err := serial.gn.ReverseDedup(serial.new)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := parallel.gn.ReverseDedup(parallel.new)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ss, ps) {
				t.Errorf("stats diverge:\nserial:   %+v\nparallel: %+v", ss, ps)
			}
			if ss.DuplicatesRemoved == 0 || ss.ContainersRewritten == 0 {
				t.Fatalf("degenerate workload, nothing deduplicated: %+v", ss)
			}
			if ranged {
				assertRangedAndCut(t, &parallel.rec, sizes, true)
			}
			assertTwinsEqual(t, serial, parallel, []string{"a", "b", "c"})

			// Idempotence holds for the parallel pass too.
			again, err := parallel.gn.ReverseDedup(parallel.new)
			if err != nil {
				t.Fatal(err)
			}
			if again.DuplicatesRemoved != 0 || again.IndexInserts != 0 {
				t.Errorf("parallel rerun not idempotent: %+v", again)
			}
		})
	}
}

// TestScrubParallelMatchesSerial corrupts both twins identically —
// donor-repairable rot and an unrepairable loss — and requires the
// parallel scrub to reach exactly the serial verdicts and final state.
func TestScrubParallelMatchesSerial(t *testing.T) {
	serial := buildTwin(t, -1)
	parallel := buildTwin(t, 8)

	for _, tw := range []*twin{serial, parallel} {
		if _, err := tw.gn.ReverseDedup(tw.new); err != nil {
			t.Fatal(err)
		}
		all, err := tw.repo.Containers.List()
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		var ids []container.ID // containers that still hold live chunks
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
		// Corrupt a live chunk in the first and last such container; the
		// scrub decides repair vs quarantine vs loss identically on both
		// twins because the damaged bytes are identical.
		flipChunkAtRest(t, tw.mem, tw.repo, ids[0], firstLiveChunk(t, tw.repo, ids[0]))
		flipChunkAtRest(t, tw.mem, tw.repo, ids[len(ids)-1], firstLiveChunk(t, tw.repo, ids[len(ids)-1]))
	}

	ss, err := serial.gn.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := parallel.gn.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ss, ps) {
		t.Errorf("scrub stats diverge:\nserial:   %+v\nparallel: %+v", ss, ps)
	}
	if ss.CorruptChunks == 0 {
		t.Fatalf("corruption not detected: %+v", ss)
	}

	si, pi := indexDump(t, serial.repo), indexDump(t, parallel.repo)
	if !reflect.DeepEqual(si, pi) {
		t.Errorf("global index diverges after scrub: serial %d entries, parallel %d", len(si), len(pi))
	}
	sm, pm := metaDump(t, serial.repo), metaDump(t, parallel.repo)
	if sm != pm {
		t.Errorf("container metadata diverges after scrub:\n--- serial ---\n%s--- parallel ---\n%s", sm, pm)
	}
}

// TestFullSweepParallelMatchesSerial deletes a version on both twins and
// audits: the parallel mark/sweep must keep exactly the serial survivors.
func TestFullSweepParallelMatchesSerial(t *testing.T) {
	serial := buildTwin(t, -1)
	parallel := buildTwin(t, 8)

	for _, tw := range []*twin{serial, parallel} {
		if _, err := tw.gn.ReverseDedup(tw.new); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.gn.DeleteVersion("c", 0); err != nil {
			t.Fatal(err)
		}
	}
	ss, err := serial.gn.FullSweep()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := parallel.gn.FullSweep()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ss, ps) {
		t.Errorf("sweep stats diverge:\nserial:   %+v\nparallel: %+v", ss, ps)
	}
	assertTwinsEqual(t, serial, parallel, []string{"a", "b"})
}

// TestCompactSparseParallelMatchesSerial runs the same compaction at
// MaintWorkers −1, 4 and 8 over byte-identical stores. The fan-out only
// overlaps I/O: stats (new container IDs included), every object left on
// the store — recipe, catalog, container data and metadata, index tables
// — the index and metadata dumps, and the restored bytes must all agree,
// whichever way the sources were read (sccFixture).
func TestCompactSparseParallelMatchesSerial(t *testing.T) {
	for _, ranged := range []bool{false, true} {
		t.Run(fmt.Sprintf("ranged=%v", ranged), func(t *testing.T) {
			baseline, cfg, want, st := sccFixture(t, ranged)

			type side struct {
				mem   *oss.Mem
				repo  *core.Repo
				stats *SCCStats
			}
			run := func(workers int) side {
				mem := baseline.Clone()
				var rec oss.Recorder
				repo, gn := openOver(t, oss.With(mem, &rec), cfg, workers)
				sizes := payloadMetas(t, repo)
				rec.Take()
				stats, err := gn.CompactSparse("f", st.Version, st.SparseContainers)
				if err != nil {
					t.Fatal(err)
				}
				if ranged {
					assertRangedAndCut(t, &rec, sizes, workers > 1)
				}
				return side{mem, repo, stats}
			}
			serial := run(-1)
			if serial.stats.ChunksMoved == 0 || len(serial.stats.NewContainers) == 0 {
				t.Fatalf("degenerate workload, nothing compacted: %+v", serial.stats)
			}
			so := prefixDump(t, serial.mem, "")
			for _, workers := range []int{4, 8} {
				parallel := run(workers)
				if !reflect.DeepEqual(serial.stats, parallel.stats) {
					t.Errorf("width %d: stats diverge:\nserial:   %+v\nparallel: %+v", workers, serial.stats, parallel.stats)
				}
				po := prefixDump(t, parallel.mem, "")
				for k, sb := range so {
					pb, ok := po[k]
					if !ok {
						t.Errorf("width %d: object %s only on the serial store", workers, k)
					} else if !bytes.Equal(sb, pb) {
						t.Errorf("width %d: object %s differs (%d vs %d bytes)", workers, k, len(sb), len(pb))
					}
				}
				for k := range po {
					if _, ok := so[k]; !ok {
						t.Errorf("width %d: object %s only on the parallel store", workers, k)
					}
				}
				if si, pi := indexDump(t, serial.repo), indexDump(t, parallel.repo); !reflect.DeepEqual(si, pi) {
					t.Errorf("width %d: global index diverges: serial %d entries, parallel %d", workers, len(si), len(pi))
				}
				if sm, pm := metaDump(t, serial.repo), metaDump(t, parallel.repo); sm != pm {
					t.Errorf("width %d: container metadata diverges:\n--- serial ---\n%s--- parallel ---\n%s", workers, sm, pm)
				}
				assertRestores(t, parallel.repo, want)
			}
			assertRestores(t, serial.repo, want)
		})
	}
}

// TestMaintenancePassesOverlapRoundTrips: each pass keeps at least two and
// at most its width of OSS reads in flight — container reads for reverse
// dedup and scrub (MaintWorkers wide), index shards probed at once for the
// sweep (one lane per G-shard). The store sleeps per request, so requests
// overlap on one core as they do on many; nothing reads the clock.
func TestMaintenancePassesOverlapRoundTrips(t *testing.T) {
	const width = 4 // MaintWorkers and GlobalShards
	tw := buildTwinLayout(t, width, width, 1)
	if len(tw.new) < 8 {
		t.Fatalf("only %d new containers; the overlap check would be vacuous", len(tw.new))
	}
	containerLane := func(key string) string {
		if strings.HasPrefix(key, container.Prefix) {
			return key
		}
		return ""
	}
	shardLane := func(key string) string { // "gidx/s<k>/…" → "gidx/s<k>"
		if rest, ok := strings.CutPrefix(key, "gidx/"); ok {
			shard, _, _ := strings.Cut(rest, "/")
			return "gidx/" + shard
		}
		return ""
	}
	for _, pass := range []struct {
		name string
		lane func(string) string
		run  func(*GNode) error
	}{
		{"ReverseDedup", containerLane, func(gn *GNode) error {
			st, err := gn.ReverseDedup(tw.new)
			if err == nil && st.DuplicatesRemoved == 0 {
				err = fmt.Errorf("nothing deduplicated: %+v", st)
			}
			return err
		}},
		{"Scrub", containerLane, func(gn *GNode) error {
			st, err := gn.Scrub()
			if err == nil && !st.Clean() {
				err = fmt.Errorf("damage on a clean repo: %+v", st)
			}
			return err
		}},
		// Runs after ReverseDedup: the recipes' moved chunks resolve
		// through index redirects, which is what the shards serve.
		{"FullSweep", shardLane, func(gn *GNode) error {
			_, err := gn.FullSweep()
			return err
		}},
	} {
		rec := newRecStore(tw.mem, 2*time.Millisecond)
		_, gn := openOver(t, rec.store, tw.repo.Config, width)
		rec.reset()
		if err := pass.run(gn); err != nil {
			t.Fatalf("%s: %v", pass.name, err)
		}
		if got := rec.maxLanes(pass.lane); got < 2 || got > width {
			t.Errorf("%s: %d reads in flight at most, want 2..%d", pass.name, got, width)
		}
		// The next pass opens cold and must find this one's index updates
		// in tables, not in a replayed memtable: a commit only syncs the
		// WAL, so flush each shard's engine by hand.
		for k := 0; k < width; k++ {
			db, err := kvstore.Open(tw.mem, kvstore.Options{Prefix: fmt.Sprintf("gidx/s%d/", k)})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
