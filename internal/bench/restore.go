package bench

import (
	"fmt"
	"io"

	"slimstore/internal/baseline"
	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
	"slimstore/internal/workload"
)

func init() {
	register("fig8ab", "Fig 8(a,b): restore caches (FV vs OPT vs ALACC), vary cache size", runFig8ab)
	register("fig8c", "Fig 8(c): SCC+FV vs HAR+OPT read amplification", runFig8c)
	register("fig8d", "Fig 8(d): LAW-based prefetching restore throughput", runFig8d)
	register("table2", "Table II: restore throughput vs prefetching thread number", runTable2)
}

// slimChain backs up `versions` of one workload file, optionally running
// the G-node optimisation (reverse dedup + SCC) after every backup. It
// returns the repo and L-node for restores.
func slimChain(gen *workload.Generator, fileIdx, versions int, optimize bool) (*core.Repo, *lnode.LNode, error) {
	cfg := benchConfig()
	repo, err := core.OpenRepo(oss.NewMem(), cfg)
	if err != nil {
		return nil, nil, err
	}
	ln := lnode.New(repo, "L0")
	gn := gnode.New(repo)
	fileID := gen.FileIDs()[fileIdx]
	err = gen.VersionSeq(fileIdx, func(v int, data []byte) error {
		if v >= versions {
			return errDone
		}
		st, err := ln.Backup(fileID, data)
		if err != nil {
			return err
		}
		if optimize {
			if _, _, err := gn.Optimize(fileID, v, st.NewContainers, st.SparseContainers); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil && err != errDone {
		return nil, nil, err
	}
	return repo, ln, nil
}

// restoreWith restores one version under the given policy/cache/threads by
// mutating the repo's restore configuration (bench runs are
// single-threaded, so this is safe).
func restoreWith(repo *core.Repo, ln *lnode.LNode, fileID string, version int,
	policy string, memBytes int64, threads int) (*lnode.RestoreStats, error) {
	repo.Config.RestorePolicy = policy
	repo.Config.CacheMemBytes = memBytes
	repo.Config.PrefetchThreads = threads
	return ln.Restore(fileID, version, io.Discard)
}

func runFig8ab(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 25)
	fileIdx := 0 // lowest dup ratio → most churn → most fragmentation
	repo, ln, err := slimChain(gen, fileIdx, versions, false)
	if err != nil {
		return err
	}
	fileID := gen.FileIDs()[fileIdx]

	// Cache sizes scaled to the workload (the paper's 256 MB–1 GiB range
	// maps to a fraction of the file size here).
	small := int64(s.FileBytes) / 8
	large := int64(s.FileBytes)
	t := newTable(w, "Fig 8(a,b): containers read per 100MB and restore MB/s (no prefetch)")
	t.row("cache", "ver", "fv reads", "opt reads", "alacc reads", "fv MB/s", "opt MB/s", "alacc MB/s")
	for _, mem := range []int64{small, large} {
		for v := 0; v < versions; v += versionStep(versions) {
			var reads [3]string
			var tput [3]string
			for i, policy := range []string{"fv", "opt", "alacc"} {
				st, err := restoreWith(repo, ln, fileID, v, policy, mem, 0)
				if err != nil {
					return err
				}
				reads[i] = f1(st.Cache.ReadAmplification())
				tput[i] = f1(st.ThroughputMBps())
			}
			t.row(mib(mem), fmt.Sprint(v), reads[0], reads[1], reads[2], tput[0], tput[1], tput[2])
		}
	}
	t.flush()
	return nil
}

// versionStep thins long version series for readable output.
func versionStep(versions int) int {
	if versions > 12 {
		return versions / 12
	}
	return 1
}

func runFig8c(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 25)
	fileIdx := 0
	fileID := gen.FileIDs()[fileIdx]
	costs := simclock.DefaultCosts()

	// Chain A: SLIMSTORE with SCC; restore via FV.
	repo, ln, err := slimChain(gen, fileIdx, versions, true)
	if err != nil {
		return err
	}
	// Chain B: SLIMSTORE without SCC (shows unbounded amplification).
	repoN, lnN, err := slimChain(gen, fileIdx, versions, false)
	if err != nil {
		return err
	}
	// Chain C: HAR (rewrites next version); restore via OPT cache.
	har, err := baseline.NewHAR(oss.NewMem(), costs, chunker.ParamsForAvg(4<<10),
		benchConfig().ContainerCapacity, 0.3)
	if err != nil {
		return err
	}
	err = gen.VersionSeq(fileIdx, func(v int, data []byte) error {
		if v >= versions {
			return errDone
		}
		_, err := har.BackupHAR(fileID, data)
		return err
	})
	if err != nil && err != errDone {
		return err
	}

	mem := int64(s.FileBytes) // the paper's "large cache" regime
	t := newTable(w, "Fig 8(c): containers read per 100MB (large cache)")
	t.row("ver", "scc+fv", "no-scc+fv", "har+opt", "scc MB/s", "har MB/s")
	for v := 0; v < versions; v += versionStep(versions) {
		a, err := restoreWith(repo, ln, fileID, v, "fv", mem, 0)
		if err != nil {
			return err
		}
		b, err := restoreWith(repoN, lnN, fileID, v, "fv", mem, 0)
		if err != nil {
			return err
		}
		seq, err := har.Sequence(fileID, v)
		if err != nil {
			return err
		}
		acct := simclock.NewAccount()
		opt := cache.NewOPT(cache.Config{MemBytes: mem, LAW: benchConfig().LAWChunks})
		cst, err := opt.Restore(seq, har.Fetcher(acct), func(d []byte) error {
			acct.ChargeCPUBytes(simclock.PhaseOther, int64(len(d)), costs.RestorePerByte)
			return nil
		})
		if err != nil {
			return err
		}
		harTput := simclock.ThroughputMBps(cst.LogicalBytes, acct.ElapsedSequential())
		t.row(fmt.Sprint(v), f1(a.Cache.ReadAmplification()), f1(b.Cache.ReadAmplification()),
			f1(cst.ReadAmplification()), f1(a.ThroughputMBps()), f1(harTput))
	}
	t.flush()
	return nil
}

func runFig8d(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 25)
	fileIdx := 0
	fileID := gen.FileIDs()[fileIdx]
	costs := simclock.DefaultCosts()

	repo, ln, err := slimChain(gen, fileIdx, versions, true)
	if err != nil {
		return err
	}
	repoN, lnN, err := slimChain(gen, fileIdx, versions, false)
	if err != nil {
		return err
	}
	har, err := baseline.NewHAR(oss.NewMem(), costs, chunker.ParamsForAvg(4<<10),
		benchConfig().ContainerCapacity, 0.3)
	if err != nil {
		return err
	}
	err = gen.VersionSeq(fileIdx, func(v int, data []byte) error {
		if v >= versions {
			return errDone
		}
		_, err := har.BackupHAR(fileID, data)
		return err
	})
	if err != nil && err != errDone {
		return err
	}

	mem := int64(s.FileBytes)
	t := newTable(w, "Fig 8(d): restore throughput (MB/s), SCC+FV+LAW prefetch vs baselines")
	t.row("ver", "scc+fv+law", "har+opt", "alacc", "vs har", "vs alacc")
	for v := 0; v < versions; v += versionStep(versions) {
		a, err := restoreWith(repo, ln, fileID, v, "fv", mem, 6)
		if err != nil {
			return err
		}
		// HAR + OPT, sequential reads.
		seq, err := har.Sequence(fileID, v)
		if err != nil {
			return err
		}
		acct := simclock.NewAccount()
		opt := cache.NewOPT(cache.Config{MemBytes: mem, LAW: benchConfig().LAWChunks})
		cst, err := opt.Restore(seq, har.Fetcher(acct), func(d []byte) error {
			acct.ChargeCPUBytes(simclock.PhaseOther, int64(len(d)), costs.RestorePerByte)
			return nil
		})
		if err != nil {
			return err
		}
		harTput := simclock.ThroughputMBps(cst.LogicalBytes, acct.ElapsedSequential())
		// ALACC on the un-compacted layout, sequential reads.
		c, err := restoreWith(repoN, lnN, fileID, v, "alacc", mem, 0)
		if err != nil {
			return err
		}
		t.row(fmt.Sprint(v), f1(a.ThroughputMBps()), f1(harTput), f1(c.ThroughputMBps()),
			f2(a.ThroughputMBps()/harTput), f2(a.ThroughputMBps()/c.ThroughputMBps()))
	}
	t.flush()
	return nil
}

func runTable2(w io.Writer, s Scale) error {
	gen := workload.New(workload.SDB(s.Files, s.FileBytes))
	versions := clampVersions(s, 8)
	fileIdx := s.Files / 2
	fileID := gen.FileIDs()[fileIdx]
	repo, ln, err := slimChain(gen, fileIdx, versions, true)
	if err != nil {
		return err
	}
	t := newTable(w, "Table II: restore throughput (MB/s) vs prefetching threads")
	t.row("threads", "restore MB/s")
	for _, threads := range []int{0, 1, 2, 4, 6, 8, 10} {
		st, err := restoreWith(repo, ln, fileID, versions-1, "fv", int64(s.FileBytes), threads)
		if err != nil {
			return err
		}
		t.row(fmt.Sprint(threads), f1(st.ThroughputMBps()))
	}
	t.flush()
	return nil
}
