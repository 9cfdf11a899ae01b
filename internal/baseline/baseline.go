// Package baseline implements the systems SLIMSTORE is evaluated against
// in the paper (§VII-A): SiLO (ATC'11) and Sparse Indexing (FAST'09) as
// fast-online-deduplication competitors (Fig 7), HAR (ATC'14) as the
// rewriting competitor for restore performance (Fig 8c), and a
// restic-style repository as the open-source comparator (Fig 10).
//
// Each baseline is a real implementation of its paper's core mechanism,
// running over the same OSS substrate and cost model as SLIMSTORE so the
// comparisons measure algorithmic differences, not harness artifacts.
package baseline

import (
	"time"

	"slimstore/internal/simclock"
)

// Result reports one baseline backup job, mirroring the fields of
// lnode.BackupStats that the comparisons use.
type Result struct {
	FileID  string
	Version int

	LogicalBytes   int64
	DuplicateBytes int64
	StoredBytes    int64
	NumChunks      int

	Account *simclock.Account
	Elapsed time.Duration
}

// DedupRatio is eliminated bytes over input bytes.
func (r *Result) DedupRatio() float64 {
	if r.LogicalBytes == 0 {
		return 0
	}
	return float64(r.DuplicateBytes) / float64(r.LogicalBytes)
}

// ThroughputMBps is deduplication throughput in MB/s of virtual time.
func (r *Result) ThroughputMBps() float64 {
	return simclock.ThroughputMBps(r.LogicalBytes, r.Elapsed)
}

// System is the minimal backup interface the comparison harness drives.
type System interface {
	Name() string
	Backup(fileID string, data []byte) (*Result, error)
}
