// Benchmarks regenerating the paper's evaluation. One Benchmark per table
// and figure drives the corresponding experiment from internal/bench at a
// small scale (run cmd/slimbench with -scale medium for sharper curves),
// and the Ablation benchmarks sweep the design knobs DESIGN.md calls out.
//
// Experiment benchmarks report virtual-time metrics via ReportMetric;
// wall-clock ns/op measures the harness itself, not the modelled system.
package slimstore

import (
	"fmt"
	"io"
	"testing"

	"slimstore/internal/bench"
	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/workload"
)

// benchScale keeps the full suite runnable in minutes. cmd/slimbench
// exposes medium/large scales for sharper curves.
var benchScale = bench.Scale{Files: 2, FileBytes: 8 << 20, Versions: 6}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per table and figure (paper §VII) ---

func BenchmarkTable1_Datasets(b *testing.B)              { runExperiment(b, "table1") }
func BenchmarkFig2_CDCBreakdown(b *testing.B)            { runExperiment(b, "fig2") }
func BenchmarkFig5a_SkipChunkingThroughput(b *testing.B) { runExperiment(b, "fig5a") }
func BenchmarkFig5b_SkipChunkingRatio(b *testing.B)      { runExperiment(b, "fig5b") }
func BenchmarkFig5c_SkipByDupRatio(b *testing.B)         { runExperiment(b, "fig5c") }
func BenchmarkFig5d_SkipBreakdown(b *testing.B)          { runExperiment(b, "fig5d") }
func BenchmarkFig6a_ChunkMergingThroughput(b *testing.B) { runExperiment(b, "fig6a") }
func BenchmarkFig6b_ChunkMergingRatio(b *testing.B)      { runExperiment(b, "fig6b") }
func BenchmarkFig7a_DedupVsBaselines(b *testing.B)       { runExperiment(b, "fig7a") }
func BenchmarkFig7b_DedupRatioVsBaselines(b *testing.B)  { runExperiment(b, "fig7b") }
func BenchmarkFig8ab_RestoreCaches(b *testing.B)         { runExperiment(b, "fig8ab") }
func BenchmarkFig8c_SCCvsHAR(b *testing.B)               { runExperiment(b, "fig8c") }
func BenchmarkFig8d_LAWPrefetch(b *testing.B)            { runExperiment(b, "fig8d") }
func BenchmarkTable2_PrefetchThreads(b *testing.B)       { runExperiment(b, "table2") }
func BenchmarkFig9a_SpaceCost(b *testing.B)              { runExperiment(b, "fig9a") }
func BenchmarkFig9b_OldVersionSpace(b *testing.B)        { runExperiment(b, "fig9b") }
func BenchmarkFig10a_BackupScaling(b *testing.B)         { runExperiment(b, "fig10a") }
func BenchmarkFig10b_RestoreScaling(b *testing.B)        { runExperiment(b, "fig10b") }
func BenchmarkFig10c_SpaceVsRestic(b *testing.B)         { runExperiment(b, "fig10c") }

// --- ablation benchmarks over the design knobs ---

// ablationCfg is the common baseline configuration of the ablations.
func ablationCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 512 << 10
	cfg.SegmentChunks = 256
	cfg.CacheMemBytes = 32 << 20
	cfg.CacheDiskBytes = 128 << 20
	cfg.LAWChunks = 1024
	return cfg
}

// ablationDedup backs up two versions of a mid-duplication file under cfg
// and reports version-1 throughput and dedup ratio as benchmark metrics.
func ablationDedup(b *testing.B, cfg core.Config) {
	b.Helper()
	gen := workload.New(workload.SDB(2, 2<<20))
	var tput, ratio float64
	for i := 0; i < b.N; i++ {
		repo, err := core.OpenRepo(oss.NewMem(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		ln := lnode.New(repo, "L0")
		if _, err := ln.Backup("f", gen.Version(1, 0)); err != nil {
			b.Fatal(err)
		}
		st, err := ln.Backup("f", gen.Version(1, 1))
		if err != nil {
			b.Fatal(err)
		}
		tput = st.ThroughputMBps()
		ratio = st.DedupRatio()
	}
	b.ReportMetric(tput, "virtualMB/s")
	b.ReportMetric(ratio*100, "dedup%")
}

func BenchmarkAblation_SamplingRatio(b *testing.B) {
	for _, r := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			cfg := ablationCfg()
			cfg.SampleRatio = r
			ablationDedup(b, cfg)
		})
	}
}

func BenchmarkAblation_SegmentSize(b *testing.B) {
	for _, chunks := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			cfg := ablationCfg()
			cfg.SegmentChunks = chunks
			ablationDedup(b, cfg)
		})
	}
}

func BenchmarkAblation_ContainerSize(b *testing.B) {
	for _, capKB := range []int{128, 512, 4096} {
		b.Run(fmt.Sprintf("cap=%dKB", capKB), func(b *testing.B) {
			cfg := ablationCfg()
			cfg.ContainerCapacity = capKB << 10
			ablationDedup(b, cfg)
		})
	}
}

func BenchmarkAblation_MergeThreshold(b *testing.B) {
	gen := workload.New(workload.SDB(2, 2<<20))
	for _, thr := range []int{2, 5, 10} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			cfg := ablationCfg()
			cfg.MergeThreshold = thr
			var tput, ratio float64
			for i := 0; i < b.N; i++ {
				repo, err := core.OpenRepo(oss.NewMem(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				ln := lnode.New(repo, "L0")
				var st *lnode.BackupStats
				err = gen.VersionSeq(1, func(v int, data []byte) error {
					if v >= 6 {
						return errStop
					}
					st, err = ln.Backup("f", data)
					return err
				})
				if err != nil && err != errStop {
					b.Fatal(err)
				}
				tput = st.ThroughputMBps()
				ratio = st.DedupRatio()
			}
			b.ReportMetric(tput, "virtualMB/s")
			b.ReportMetric(ratio*100, "dedup%")
		})
	}
}

func BenchmarkAblation_SCCThreshold(b *testing.B) {
	gen := workload.New(workload.SDB(2, 2<<20))
	for _, util := range []float64{0.1, 0.3, 0.6} {
		b.Run(fmt.Sprintf("util=%.1f", util), func(b *testing.B) {
			cfg := ablationCfg()
			cfg.SparseUtilization = util
			var amp float64
			for i := 0; i < b.N; i++ {
				repo, err := core.OpenRepo(oss.NewMem(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				ln := lnode.New(repo, "L0")
				gn := gnode.New(repo)
				var last *lnode.BackupStats
				err = gen.VersionSeq(0, func(v int, data []byte) error {
					if v >= 6 {
						return errStop
					}
					st, err := ln.Backup("f", data)
					if err != nil {
						return err
					}
					if _, err := gn.CompactSparse("f", v, st.SparseContainers); err != nil {
						return err
					}
					last = st
					return nil
				})
				if err != nil && err != errStop {
					b.Fatal(err)
				}
				rs, err := ln.Restore("f", last.Version, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				amp = rs.Cache.ReadAmplification()
			}
			b.ReportMetric(amp, "reads/100MB")
		})
	}
}

func BenchmarkAblation_RestoreCacheSize(b *testing.B) {
	gen := workload.New(workload.SDB(2, 2<<20))
	for _, memKB := range []int64{64, 256, 2048} {
		b.Run(fmt.Sprintf("mem=%dKB", memKB), func(b *testing.B) {
			cfg := ablationCfg()
			cfg.CacheMemBytes = memKB << 10
			cfg.CacheDiskBytes = 0
			cfg.PrefetchThreads = 0
			var amp float64
			for i := 0; i < b.N; i++ {
				repo, err := core.OpenRepo(oss.NewMem(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				ln := lnode.New(repo, "L0")
				var last *lnode.BackupStats
				err = gen.VersionSeq(0, func(v int, data []byte) error {
					if v >= 6 {
						return errStop
					}
					st, berr := ln.Backup("f", data)
					last = st
					return berr
				})
				if err != nil && err != errStop {
					b.Fatal(err)
				}
				rs, err := ln.Restore("f", last.Version, io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				amp = rs.Cache.ReadAmplification()
			}
			b.ReportMetric(amp, "reads/100MB")
		})
	}
}

var errStop = fmt.Errorf("stop")

// BenchmarkEndToEnd measures the real (wall-clock) cost of the full
// pipeline: backup + optimize + restore of an 8 MiB version chain.
func BenchmarkEndToEnd(b *testing.B) {
	gen := workload.New(workload.SDB(1, 8<<20))
	v0 := gen.Version(0, 0)
	v1 := gen.Version(0, 1)
	b.SetBytes(int64(len(v0) + len(v1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := OpenMemory(DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, data := range [][]byte{v0, v1} {
			st, err := sys.Backup("f", data)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := sys.Optimize(st); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := sys.Restore("f", 1, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DedupCacheSize(b *testing.B) {
	gen := workload.New(workload.SDB(2, 4<<20))
	for _, segs := range []int{2, 8, 256} {
		b.Run(fmt.Sprintf("segments=%d", segs), func(b *testing.B) {
			cfg := ablationCfg()
			cfg.SegmentChunks = 64 // many small segments stress the bound
			cfg.DedupCacheSegments = segs
			var tput, ratio float64
			for i := 0; i < b.N; i++ {
				repo, err := core.OpenRepo(oss.NewMem(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				ln := lnode.New(repo, "L0")
				if _, err := ln.Backup("f", gen.Version(1, 0)); err != nil {
					b.Fatal(err)
				}
				st, err := ln.Backup("f", gen.Version(1, 1))
				if err != nil {
					b.Fatal(err)
				}
				tput = st.ThroughputMBps()
				ratio = st.DedupRatio()
			}
			b.ReportMetric(tput, "virtualMB/s")
			b.ReportMetric(ratio*100, "dedup%")
		})
	}
}
