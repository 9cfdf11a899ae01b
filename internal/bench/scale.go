package bench

import (
	"fmt"
	"io"

	"slimstore/internal/baseline"
	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/pipe"
	"slimstore/internal/simclock"
	"slimstore/internal/workload"
)

func init() {
	register("fig10a", "Fig 10(a): backup throughput scaling vs Restic", runFig10a)
	register("fig10b", "Fig 10(b): restore throughput scaling vs Restic", runFig10b)
	register("fig10c", "Fig 10(c): occupied space vs Restic", runFig10c)
}

// Jobs-per-node capacities from §VII-E: up to ~12 backup jobs and 8
// restore jobs per L-node before another node is allocated.
const (
	backupJobsPerNode  = 12
	restoreJobsPerNode = 8
)

// fig10Config is the §VII-E SLIMSTORE setup: 256 KiB initial chunks,
// merging up to 2 MiB.
func fig10Config() core.Config {
	cfg := benchConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(256 << 10)
	cfg.MaxSuperChunkBytes = 2 << 20
	cfg.ContainerCapacity = 8 << 20
	cfg.SegmentChunks = 64
	cfg.PrefetchThreads = 2
	return cfg
}

// fig10Gen picks an R-Data-profile dataset with `files` files at half the
// scale's file size (fig 10 sweeps many concurrent jobs).
func fig10Gen(s Scale, files int) *workload.Generator {
	return workload.New(workload.RData(files, s.FileBytes/2))
}

// sumJobs runs `jobs` jobs at once and returns their summed rates (MB/s)
// and bytes, added in job order so the sums do not depend on which job
// finished first.
func sumJobs(jobs int, job func(j int) (mbps float64, bytes int64, err error)) (float64, int64, error) {
	rates, sizes := make([]float64, jobs), make([]int64, jobs)
	err := pipe.FanOut(jobs, jobs, func(j int) (err error) {
		rates[j], sizes[j], err = job(j)
		return err
	})
	var rate float64
	var size int64
	for j := range rates {
		rate += rates[j]
		size += sizes[j]
	}
	return rate, size, err
}

func runFig10a(w io.Writer, s Scale) error {
	jobCounts := []int{1, 2, 4, 8, 16, 24}
	totalFiles := 0
	for _, j := range jobCounts {
		totalFiles += j
	}
	gen := fig10Gen(s, totalFiles)
	costs := simclock.DefaultCosts()

	// Seed version 0 of every file on both systems; each concurrency
	// round then measures first-time incremental backups of fresh files,
	// so rounds are comparable.
	repo, err := core.OpenRepo(oss.NewMem(), fig10Config())
	if err != nil {
		return err
	}
	ln := lnode.New(repo, "L0")
	restic, err := baseline.NewRestic(oss.NewMem(), costs, chunker.ParamsForAvg(1<<20), 16<<20)
	if err != nil {
		return err
	}
	for i := 0; i < len(gen.FileIDs()); i++ {
		base := gen.Base(i)
		if _, err := ln.Backup(gen.FileIDs()[i], base); err != nil {
			return err
		}
		if _, err := restic.Backup(gen.FileIDs()[i], base); err != nil {
			return err
		}
	}

	t := newTable(w, "Fig 10(a): aggregate backup throughput (MB/s) vs concurrent jobs")
	t.row("jobs", "l-nodes", "slimstore", "restic", "slim/restic")
	offset := 0
	for _, jobs := range jobCounts {
		// SLIMSTORE: jobs are independent (stateless L-nodes, no shared
		// bottleneck) — aggregate throughput is the sum of per-job rates.
		slimSum, _, err := sumJobs(jobs, func(j int) (float64, int64, error) {
			fi := offset + j
			st, err := ln.Backup(gen.FileIDs()[fi], gen.Version(fi, 1))
			if err != nil {
				return 0, 0, err
			}
			return st.ThroughputMBps(), st.LogicalBytes, nil
		})
		if err != nil {
			return err
		}

		// Restic: per-job rates sum too, but the single shared index
		// serialises — aggregate is capped at totalBytes / serialised
		// index time.
		lockBefore := restic.LockAccount().CPUTime()
		resticSum, resticBytes, err := sumJobs(jobs, func(j int) (float64, int64, error) {
			fi := offset + j
			r, err := restic.Backup(gen.FileIDs()[fi], gen.Version(fi, 1))
			if err != nil {
				return 0, 0, err
			}
			return r.ThroughputMBps(), r.LogicalBytes, nil
		})
		if err != nil {
			return err
		}
		lockTime := restic.LockAccount().CPUTime() - lockBefore
		if cap := simclock.ThroughputMBps(resticBytes, lockTime); cap < resticSum {
			resticSum = cap
		}
		offset += jobs

		nodes := (jobs + backupJobsPerNode - 1) / backupJobsPerNode
		t.row(fmt.Sprint(jobs), fmt.Sprint(nodes), f1(slimSum), f1(resticSum),
			f2(slimSum/resticSum))
	}
	t.flush()
	return nil
}

func runFig10b(w io.Writer, s Scale) error {
	jobCounts := []int{1, 2, 4, 8, 16, 24}
	gen := fig10Gen(s, jobCounts[len(jobCounts)-1])
	costs := simclock.DefaultCosts()

	repo, err := core.OpenRepo(oss.NewMem(), fig10Config())
	if err != nil {
		return err
	}
	ln := lnode.New(repo, "L0")
	restic, err := baseline.NewRestic(oss.NewMem(), costs, chunker.ParamsForAvg(1<<20), 16<<20)
	if err != nil {
		return err
	}
	for i := 0; i < len(gen.FileIDs()); i++ {
		data := gen.Base(i)
		if _, err := ln.Backup(gen.FileIDs()[i], data); err != nil {
			return err
		}
		if _, err := restic.Backup(gen.FileIDs()[i], data); err != nil {
			return err
		}
	}

	t := newTable(w, "Fig 10(b): aggregate restore throughput (MB/s) vs concurrent jobs")
	t.row("jobs", "l-nodes", "slimstore", "restic", "slim/restic")
	for _, jobs := range jobCounts {
		slimSum, _, err := sumJobs(jobs, func(j int) (float64, int64, error) {
			st, err := ln.Restore(gen.FileIDs()[j%len(gen.FileIDs())], 0, io.Discard)
			if err != nil {
				return 0, 0, err
			}
			return st.ThroughputMBps(), st.Bytes, nil
		})
		if err != nil {
			return err
		}

		lockBefore := restic.LockAccount().CPUTime()
		resticSum, resticBytes, err := sumJobs(jobs, func(j int) (float64, int64, error) {
			rr, err := restic.Restore(gen.FileIDs()[j%len(gen.FileIDs())], 0, func([]byte) error { return nil })
			if err != nil {
				return 0, 0, err
			}
			return simclock.ThroughputMBps(rr.Bytes, rr.Elapsed), rr.Bytes, nil
		})
		if err != nil {
			return err
		}
		lockTime := restic.LockAccount().CPUTime() - lockBefore
		if cap := simclock.ThroughputMBps(resticBytes, lockTime); cap < resticSum {
			resticSum = cap
		}

		nodes := (jobs + restoreJobsPerNode - 1) / restoreJobsPerNode
		t.row(fmt.Sprint(jobs), fmt.Sprint(nodes), f1(slimSum), f1(resticSum),
			f2(slimSum/resticSum))
	}
	t.flush()
	return nil
}

func runFig10c(w io.Writer, s Scale) error {
	versions := clampVersions(s, 13)
	gen := workload.New(workload.RData(s.Files*2, s.FileBytes))
	costs := simclock.DefaultCosts()

	mem := oss.NewMem()
	repo, err := core.OpenRepo(mem, fig10Config())
	if err != nil {
		return err
	}
	ln := lnode.New(repo, "L0")
	gn := gnode.New(repo)

	resticMem := oss.NewMem()
	restic, err := baseline.NewRestic(resticMem, costs, chunker.ParamsForAvg(1<<20), 16<<20)
	if err != nil {
		return err
	}

	// Phase 1: online backups only (L-dedupe space).
	pending := make(map[string][]*lnode.BackupStats)
	for i := 0; i < len(gen.FileIDs()); i++ {
		fileID := gen.FileIDs()[i]
		err := gen.VersionSeq(i, func(v int, data []byte) error {
			if v >= versions {
				return errDone
			}
			st, err := ln.Backup(fileID, data)
			if err != nil {
				return err
			}
			pending[fileID] = append(pending[fileID], st)
			_, err = restic.Backup(fileID, data)
			return err
		})
		if err != nil && err != errDone {
			return err
		}
	}
	slimNoG := mem.BytesWithPrefix("containers/")

	// Phase 2: the offline G-node pass (the shaded part of Fig 10c).
	for _, fileID := range gen.FileIDs() {
		for _, st := range pending[fileID] {
			if _, _, err := gn.Optimize(fileID, st.Version, st.NewContainers, st.SparseContainers); err != nil {
				return err
			}
		}
	}
	slimFinal := mem.BytesWithPrefix("containers/")
	resticFinal := resticMem.BytesWithPrefix("containers/")

	t := newTable(w, "Fig 10(c): occupied container space (R-Data)")
	t.row("system", "space", "vs restic")
	t.row("restic (1MB chunks)", mib(resticFinal), "1.00")
	t.row("slimstore (L-dedupe)", mib(slimNoG), f2(float64(slimNoG)/float64(resticFinal)))
	t.row("slimstore (+G-dedupe)", mib(slimFinal), f2(float64(slimFinal)/float64(resticFinal)))
	t.flush()
	fmt.Fprintf(w, "reverse dedup further reduced space by %s\n",
		pct(1-float64(slimFinal)/float64(max64(slimNoG, 1))))
	return nil
}
