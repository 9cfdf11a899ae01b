package bench

import (
	"fmt"
	"io"
	"time"

	"slimstore/internal/baseline"
	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
	"slimstore/internal/workload"
)

func init() {
	register("table1", "Table I: The characteristics of dataset", runTable1)
	register("fig2", "Fig 2: CPU and network time breakdown of CDC", runFig2)
	register("fig5a", "Fig 5(a): Throughput vs chunk size (skip chunking)", runFig5a)
	register("fig5b", "Fig 5(b): Deduplication ratio vs chunk size (skip chunking)", runFig5b)
	register("fig5c", "Fig 5(c): Throughput vs file characteristics (skip chunking)", runFig5c)
	register("fig5d", "Fig 5(d): CPU time breakdown with skip chunking", runFig5d)
	register("fig6a", "Fig 6(a): Throughput & avg chunk size (chunk merging)", runFig6a)
	register("fig6b", "Fig 6(b): Deduplication ratio (chunk merging)", runFig6b)
	register("fig7a", "Fig 7(a): Dedup throughput vs SiLO / Sparse Indexing", runFig7a)
	register("fig7b", "Fig 7(b): Dedup ratio vs SiLO / Sparse Indexing", runFig7b)
}

// backupSeries runs `versions` backups of one workload file under cfg on a
// fresh repo, returning per-version stats.
func backupSeries(cfg core.Config, gen *workload.Generator, fileIdx, versions int) ([]*lnode.BackupStats, error) {
	repo, err := core.OpenRepo(oss.NewMem(), cfg)
	if err != nil {
		return nil, err
	}
	ln := lnode.New(repo, "L0")
	var out []*lnode.BackupStats
	fileID := gen.FileIDs()[fileIdx]
	err = gen.VersionSeq(fileIdx, func(v int, data []byte) error {
		if v >= versions {
			return errDone
		}
		st, err := ln.Backup(fileID, data)
		if err != nil {
			return err
		}
		out = append(out, st)
		return nil
	})
	if err != nil && err != errDone {
		return nil, err
	}
	return out, nil
}

var errDone = fmt.Errorf("done")

// ---------------------------------------------------------------------------

func runTable1(w io.Writer, s Scale) error {
	t := newTable(w, "Table I: dataset characteristics (scaled)")
	t.row("dataset", "total size", "# versions", "# files", "avg dup ratio", "self-reference")
	for _, spec := range []workload.Spec{
		workload.SDB(s.Files, s.FileBytes),
		workload.RData(s.Files, s.FileBytes),
	} {
		g := workload.New(spec)
		st := g.Stats()
		t.row(st.Name, gib(st.TotalBytes), fmt.Sprint(st.Versions), fmt.Sprint(st.Files),
			f2(st.MeanDup), pct(st.SelfRef))
	}
	t.flush()
	// Validate the generator against its targets on one file.
	g := workload.New(workload.SDB(s.Files, s.FileBytes))
	fmt.Fprintf(w, "generator check: file 0 target dup %.2f, measured %.2f\n",
		g.FileDupRatio(0), g.MeasureDup(0, 1))
	return nil
}

func runFig2(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 5)
	t := newTable(w, "Fig 2: CPU & network time breakdown (no skip chunking)")
	t.row("algo", "ver", "chunking", "fingerprint", "index", "other", "cpu(ms)", "net(ms)", "bottleneck")
	for _, algo := range []string{"rabin", "fastcdc"} {
		cfg := benchConfig()
		cfg.ChunkAlgo = algo
		cfg.SkipChunking = false
		cfg.ChunkMerging = false
		stats, err := backupSeries(cfg, gen, s.Files/2, versions)
		if err != nil {
			return err
		}
		for v, st := range stats {
			br := st.Account.CPUBreakdown()
			cpu := st.Account.CPUTime()
			io := st.Account.IO()
			net := io.ReadTime + io.WriteTime
			bn := "CPU"
			if net > cpu {
				bn = "network"
			}
			t.row(algo, fmt.Sprint(v),
				pct(br[simclock.PhaseChunking]), pct(br[simclock.PhaseFingerprint]),
				pct(br[simclock.PhaseIndexQuery]), pct(br[simclock.PhaseOther]),
				f1(float64(cpu)/float64(time.Millisecond)),
				f1(float64(net)/float64(time.Millisecond)), bn)
		}
	}
	t.flush()
	return nil
}

// fig5Run measures version-1 dedup under one (algo, chunkKB, skip) cell.
func fig5Run(gen *workload.Generator, fileIdx int, algo string, chunkKB int, skip bool) (*lnode.BackupStats, error) {
	cfg := benchConfig()
	cfg.ChunkAlgo = algo
	cfg.ChunkParams = chunker.ParamsForAvg(chunkKB << 10)
	cfg.SkipChunking = skip
	cfg.ChunkMerging = false
	stats, err := backupSeries(cfg, gen, fileIdx, 2)
	if err != nil {
		return nil, err
	}
	return stats[len(stats)-1], nil
}

var fig5ChunkKBs = []int{4, 8, 16, 32, 64}

func runFig5a(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	t := newTable(w, "Fig 5(a): dedup throughput (MB/s) vs chunk size")
	t.row("chunk", "rabin", "rabin+skip", "fastcdc", "fastcdc+skip")
	for _, kb := range fig5ChunkKBs {
		cells := []string{fmt.Sprintf("%dKB", kb)}
		for _, algo := range []string{"rabin", "fastcdc"} {
			for _, skip := range []bool{false, true} {
				st, err := fig5Run(gen, s.Files/2, algo, kb, skip)
				if err != nil {
					return err
				}
				cells = append(cells, f1(st.ThroughputMBps()))
			}
		}
		t.row(cells...)
	}
	t.flush()
	return nil
}

func runFig5b(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	t := newTable(w, "Fig 5(b): dedup ratio vs chunk size")
	t.row("chunk", "rabin", "rabin+skip", "fastcdc", "fastcdc+skip")
	for _, kb := range fig5ChunkKBs {
		cells := []string{fmt.Sprintf("%dKB", kb)}
		for _, algo := range []string{"rabin", "fastcdc"} {
			for _, skip := range []bool{false, true} {
				st, err := fig5Run(gen, s.Files/2, algo, kb, skip)
				if err != nil {
					return err
				}
				cells = append(cells, pct(st.DedupRatio()))
			}
		}
		t.row(cells...)
	}
	t.flush()
	return nil
}

func runFig5c(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	t := newTable(w, "Fig 5(c): throughput (MB/s) vs file duplication ratio")
	t.row("file dup", "fastcdc", "fastcdc+skip", "speedup")
	for i := 0; i < s.Files; i++ {
		plain, err := fig5Run(gen, i, "fastcdc", 4, false)
		if err != nil {
			return err
		}
		skip, err := fig5Run(gen, i, "fastcdc", 4, true)
		if err != nil {
			return err
		}
		t.row(f2(gen.FileDupRatio(i)), f1(plain.ThroughputMBps()), f1(skip.ThroughputMBps()),
			f2(skip.ThroughputMBps()/plain.ThroughputMBps()))
	}
	t.flush()
	return nil
}

func runFig5d(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	t := newTable(w, "Fig 5(d): CPU breakdown with skip chunking (version 1)")
	t.row("algo", "chunking", "fingerprint", "index", "other", "skip hits", "skip misses")
	for _, algo := range []string{"rabin", "fastcdc"} {
		st, err := fig5Run(gen, s.Files/2, algo, 4, true)
		if err != nil {
			return err
		}
		br := st.Account.CPUBreakdown()
		t.row(algo,
			pct(br[simclock.PhaseChunking]), pct(br[simclock.PhaseFingerprint]),
			pct(br[simclock.PhaseIndexQuery]), pct(br[simclock.PhaseOther]),
			fmt.Sprint(st.SkipHits), fmt.Sprint(st.SkipMisses))
	}
	t.flush()
	return nil
}

// fig6Run backs up enough versions to trigger merging and returns the
// last version's stats under merge on/off.
func fig6Run(gen *workload.Generator, fileIdx, versions int, merge bool) (*lnode.BackupStats, error) {
	cfg := benchConfig()
	cfg.ChunkMerging = merge
	stats, err := backupSeries(cfg, gen, fileIdx, versions)
	if err != nil {
		return nil, err
	}
	return stats[len(stats)-1], nil
}

func runFig6a(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 9)
	t := newTable(w, "Fig 6(a): chunk-merging throughput & avg chunk size (final version)")
	t.row("file dup", "no-merge MB/s", "merge MB/s", "gain", "avg chunk (merge)")
	for i := 0; i < s.Files; i++ {
		off, err := fig6Run(gen, i, versions, false)
		if err != nil {
			return err
		}
		on, err := fig6Run(gen, i, versions, true)
		if err != nil {
			return err
		}
		avg := int64(0)
		if on.NumChunks > 0 {
			avg = on.LogicalBytes / int64(on.NumChunks)
		}
		t.row(f2(gen.FileDupRatio(i)), f1(off.ThroughputMBps()), f1(on.ThroughputMBps()),
			f2(on.ThroughputMBps()/off.ThroughputMBps()), fmt.Sprintf("%dKB", avg>>10))
	}
	t.flush()
	return nil
}

func runFig6b(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 9)
	t := newTable(w, "Fig 6(b): chunk-merging dedup ratio (final version)")
	t.row("file dup", "no-merge", "merge", "ratio loss")
	for i := 0; i < s.Files; i++ {
		off, err := fig6Run(gen, i, versions, false)
		if err != nil {
			return err
		}
		on, err := fig6Run(gen, i, versions, true)
		if err != nil {
			return err
		}
		t.row(f2(gen.FileDupRatio(i)), pct(off.DedupRatio()), pct(on.DedupRatio()),
			pct(off.DedupRatio()-on.DedupRatio()))
	}
	t.flush()
	return nil
}

// runFig7 drives SLIMSTORE, SiLO and Sparse Indexing over the same
// version sequence and reports per-version aggregate throughput and ratio.
func runFig7(w io.Writer, s Scale, metric string) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 25)
	costs := simclock.DefaultCosts()
	params := chunker.ParamsForAvg(4 << 10)

	// SLIMSTORE.
	cfg := benchConfig()
	repo, err := core.OpenRepo(oss.NewMem(), cfg)
	if err != nil {
		return err
	}
	ln := lnode.New(repo, "L0")

	silo, err := baseline.NewSiLO(oss.NewMem(), costs, params, cfg.ContainerCapacity)
	if err != nil {
		return err
	}
	si, err := baseline.NewSparseIndexing(oss.NewMem(), costs, params, cfg.ContainerCapacity)
	if err != nil {
		return err
	}

	type row struct {
		slim, silo, si    float64 // MB/s
		slimR, siloR, siR float64 // dedup ratio
	}
	rows := make([]row, versions)
	for i := 0; i < s.Files; i++ {
		fileID := gen.FileIDs()[i]
		err := gen.VersionSeq(i, func(v int, data []byte) error {
			if v >= versions {
				return errDone
			}
			st, err := ln.Backup(fileID, data)
			if err != nil {
				return err
			}
			r1, err := silo.Backup(fileID, data)
			if err != nil {
				return err
			}
			r2, err := si.Backup(fileID, data)
			if err != nil {
				return err
			}
			rows[v].slim += st.ThroughputMBps()
			rows[v].silo += r1.ThroughputMBps()
			rows[v].si += r2.ThroughputMBps()
			rows[v].slimR += st.DedupRatio()
			rows[v].siloR += r1.DedupRatio()
			rows[v].siR += r2.DedupRatio()
			return nil
		})
		if err != nil && err != errDone {
			return err
		}
	}
	n := float64(s.Files)
	if metric == "throughput" {
		t := newTable(w, "Fig 7(a): dedup throughput (MB/s, avg per job) across versions")
		t.row("ver", "slimstore", "silo", "sparse-idx", "vs silo", "vs sparse-idx")
		for v := 0; v < versions; v++ {
			r := rows[v]
			t.row(fmt.Sprint(v), f1(r.slim/n), f1(r.silo/n), f1(r.si/n),
				f2(r.slim/r.silo), f2(r.slim/r.si))
		}
		t.flush()
	} else {
		t := newTable(w, "Fig 7(b): dedup ratio across versions")
		t.row("ver", "slimstore", "silo", "sparse-idx")
		for v := 0; v < versions; v++ {
			r := rows[v]
			t.row(fmt.Sprint(v), pct(r.slimR/n), pct(r.siloR/n), pct(r.siR/n))
		}
		t.flush()
	}
	return nil
}

func runFig7a(w io.Writer, s Scale) error { return runFig7(w, s, "throughput") }
func runFig7b(w io.Writer, s Scale) error { return runFig7(w, s, "ratio") }
