package jobs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
)

func stressConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 256 << 10
	cfg.SegmentChunks = 64
	cfg.SampleRatio = 8
	cfg.MaxSuperChunkBytes = 64 << 10
	cfg.CacheMemBytes = 16 << 20
	cfg.CacheDiskBytes = 64 << 20
	cfg.LAWChunks = 256
	cfg.PrefetchThreads = 2
	return cfg
}

func stressData(seed int64, n int) []byte {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return b
}

// stressMutate overwrites a handful of small ranges, keeping most bytes
// identical so incremental backups have a high duplicate ratio to assert
// against.
func stressMutate(data []byte, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	out := append([]byte(nil), data...)
	for i := 0; i < 8; i++ {
		off := r.Intn(len(out) - 256)
		r.Read(out[off : off+32+r.Intn(128)])
	}
	return out
}

// TestStressMixedJobsUnderFaults is the race regression suite's anchor: a
// seeded run of well over 32 mixed jobs (backup, restore, verify,
// optimize, delete, scrub, sweep) over 6 L-nodes against one shared repo,
// with probabilistic OSS faults injected underneath a retry layer the
// whole time. It must pass under -race (scripts/check.sh runs the suite
// that way), every restore must be byte-identical, incremental dedup
// ratios must hold up, and a final audit must find no lost or leaked
// chunks.
func TestStressMixedJobsUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("slow stress test")
	}
	const (
		lnodes   = 6
		files    = 8
		versions = 3
		fileSize = 512 << 10
	)

	// Frozen underneath everything: no job, cache or fault layer may write
	// through a byte the store returned (checked at the end).
	mem := oss.NewFrozen(oss.NewMem())
	faulty := oss.NewFaulty(mem)
	faulty.SetRand(rand.New(rand.NewSource(1)))
	// Transient faults under an aggressive retry layer: every operation
	// eventually succeeds, so outcomes stay assertable while every
	// error-handling path in between gets exercised.
	store := oss.NewRetry(faulty, 10, time.Microsecond, func(time.Duration) {})

	repo, err := core.OpenRepo(store, stressConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(repo, gnode.New(repo), Options{LNodes: lnodes})
	defer eng.Close()

	fileID := func(i int) string { return fmt.Sprintf("db/stress%d", i) }
	kept := make([][][]byte, files) // kept[file][version] = expected bytes
	data := make([][]byte, files)
	for i := range data {
		data[i] = stressData(int64(i+1)*7919, fileSize)
	}

	faulty.FailRate(0.02)

	totalJobs := 0
	var pendingOpt []Job // G-node passes from the previous wave's backups
	for wave := 0; wave < versions; wave++ {
		var batch []Job
		var checks []func(Result) error
		add := func(j Job, check func(Result) error) {
			batch = append(batch, j)
			checks = append(checks, check)
		}

		for i := 0; i < files; i++ {
			i := i
			if wave > 0 {
				data[i] = stressMutate(data[i], int64(wave*1000+i))
			}
			d := append([]byte(nil), data[i]...)
			kept[i] = append(kept[i], d)
			wantVer, incremental := wave, wave > 0
			add(Job{Kind: Backup, FileID: fileID(i), Data: d}, func(r Result) error {
				if r.Err != nil {
					return fmt.Errorf("backup %s wave %d: %w", fileID(i), wantVer, r.Err)
				}
				if r.Backup.Version != wantVer {
					return fmt.Errorf("backup %s: version %d, want %d", fileID(i), r.Backup.Version, wantVer)
				}
				if ratio := r.Backup.DedupRatio(); incremental && ratio < 0.5 {
					return fmt.Errorf("backup %s v%d: dedup ratio collapsed to %.2f (%d of %d bytes duplicate)",
						fileID(i), wantVer, ratio, r.Backup.DuplicateBytes, r.Backup.LogicalBytes)
				}
				return nil
			})

			// Read back an already-stored version of another file while
			// its neighbours are being written, and one of this file while
			// its next version is: a restore takes no file lock.
			if wave > 0 {
				pick := rand.New(rand.NewSource(int64(wave*100 + i)))
				for _, rf := range []int{(i + wave) % files, i} {
					rv := pick.Intn(wave)
					var buf bytes.Buffer
					add(Job{Kind: Restore, FileID: fileID(rf), Version: rv, Out: &buf}, func(r Result) error {
						if r.Err != nil {
							return fmt.Errorf("restore %s v%d: %w", fileID(rf), rv, r.Err)
						}
						if !bytes.Equal(buf.Bytes(), kept[rf][rv]) {
							return fmt.Errorf("restore %s v%d: bytes differ mid-stress", fileID(rf), rv)
						}
						return nil
					})
				}
			}
		}
		for _, j := range pendingOpt {
			j := j
			add(j, func(r Result) error {
				if r.Err != nil {
					return fmt.Errorf("optimize %s v%d: %w", j.FileID, j.Version, r.Err)
				}
				return nil
			})
		}
		pendingOpt = nil
		// Maintenance racing the online path: a scrub and a full audit in
		// the same wave as the backups and restores.
		add(Job{Kind: Scrub}, func(r Result) error {
			if r.Err != nil {
				return fmt.Errorf("scrub wave %d: %w", wave, r.Err)
			}
			return nil
		})
		add(Job{Kind: Sweep}, func(r Result) error {
			if r.Err != nil {
				return fmt.Errorf("sweep wave %d: %w", wave, r.Err)
			}
			return nil
		})

		totalJobs += len(batch)
		for i, r := range eng.Run(nil, batch) {
			if err := checks[i](r); err != nil {
				t.Fatal(err)
			}
			if r.Job.Kind == Backup {
				st := r.Backup
				pendingOpt = append(pendingOpt, Job{
					Kind: Optimize, FileID: st.FileID, Version: st.Version,
					NewContainers: st.NewContainers, Sparse: st.SparseContainers,
				})
			}
		}
	}

	// Quiesce and audit with faults disarmed: every version of every file
	// restores byte-identically and verifies, concurrently.
	faulty.Clear()
	var batch []Job
	var checks []func(Result) error
	for i := 0; i < files; i++ {
		for v := 0; v < versions; v++ {
			i, v := i, v
			var buf bytes.Buffer
			batch = append(batch, Job{Kind: Restore, FileID: fileID(i), Version: v, Out: &buf})
			checks = append(checks, func(r Result) error {
				if r.Err != nil {
					return fmt.Errorf("final restore %s v%d: %w", fileID(i), v, r.Err)
				}
				if !bytes.Equal(buf.Bytes(), kept[i][v]) {
					return fmt.Errorf("final restore %s v%d: bytes differ", fileID(i), v)
				}
				return nil
			})
			batch = append(batch, Job{Kind: Verify, FileID: fileID(i), Version: v})
			checks = append(checks, func(r Result) error {
				if r.Err != nil {
					return fmt.Errorf("final verify %s v%d: %w", fileID(i), v, r.Err)
				}
				return nil
			})
		}
	}
	totalJobs += len(batch)
	for i, r := range eng.Run(nil, batch) {
		if err := checks[i](r); err != nil {
			t.Fatal(err)
		}
	}

	// No lost chunks, no leaked containers: the audit finds everything
	// reachable and nothing to reclaim.
	res := eng.Run(nil, []Job{{Kind: Sweep}})
	totalJobs++
	if res[0].Err != nil {
		t.Fatalf("final sweep: %v", res[0].Err)
	}
	if res[0].Audit.ContainersSwept != 0 {
		t.Fatalf("final sweep reclaimed %d containers: chunks were lost or leaked", res[0].Audit.ContainersSwept)
	}

	if totalJobs < 32 {
		t.Fatalf("stress schedule ran only %d jobs, want >= 32", totalJobs)
	}
	st := eng.Stats()
	if st.Failed != 0 || st.Cancelled != 0 || st.Completed != st.Submitted || st.Submitted != int64(totalJobs) {
		t.Fatalf("engine counters inconsistent after %d jobs: %+v", totalJobs, st)
	}
	if ops := faulty.Ops(); ops == 0 {
		t.Fatal("fault layer observed no operations: the stress run bypassed the faulty store")
	}
	if err := mem.Check(); err != nil {
		t.Fatal(err)
	}
}
