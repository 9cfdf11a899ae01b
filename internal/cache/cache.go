// Package cache implements the restore caches SLIMSTORE is evaluated
// against (paper §V-A, Fig 8):
//
//   - FV: SLIMSTORE's full-vision chunk cache — a counting bloom filter
//     holds the complete future reference counts of the restoring file, a
//     look-ahead window (LAW) marks chunks needed soon (S_I) versus later
//     (S_L) versus never again (S_U), and a two-layer memory/disk design
//     swaps far-future chunks to the L-node local disk instead of evicting
//     them. With sufficient total capacity every container is read from
//     OSS at most once.
//   - OPT: the LAW-based container cache used with HAR (Belady's policy
//     restricted to the window) — the paper's weaker baseline.
//   - ALACC: forward assembly area plus a chunk cache (FAST'18), the
//     paper's stronger baseline.
//   - LRU: a plain container LRU, used by the restic-style baseline.
//
// All policies implement Restorer over the same container Fetcher, so the
// benchmark harness swaps them freely and compares container reads per
// restored MB (read amplification → OSS bandwidth) under equal budgets.
package cache

import (
	"fmt"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
)

// Request is one chunk occurrence in the restore sequence, in logical
// (recipe) order.
type Request struct {
	FP        fingerprint.FP
	Container container.ID
	Size      uint32
}

// Fetcher reads a whole container from OSS (through a metered store, so
// I/O is charged to the job's account).
type Fetcher func(id container.ID) (*container.Container, error)

// Emit receives each restored chunk's payload in logical order.
type Emit func(data []byte) error

// Stats summarises one restore run.
type Stats struct {
	Requests       int
	LogicalBytes   int64 // restored output bytes
	ContainersRead int   // OSS container fetches (with rereads)
	Rereads        int   // fetches of a container already fetched before
	OSSBytes       int64 // container payload bytes fetched
	MemHits        int
	DiskHits       int   // chunks served from the disk layer (FV only)
	DiskSwaps      int   // chunks demoted to the disk layer (FV only)
	DiskHitBytes   int64 // bytes read back from the disk layer
	DiskSwapBytes  int64 // bytes written to the disk layer

	// Sequence-resolution costs (filled by the restore path, not the
	// policies): container-metadata reads issued while converting the
	// recipe into the request sequence, and how many of the per-record
	// lookups the per-pass memo answered without touching the store.
	ResolveMetaReads    int
	ResolveMetaMemoHits int

	// Node-level restore I/O (filled by the lnode fetch layer, not the
	// policies): fetches served by the shared node-wide cache, fetches
	// that rode another job's in-flight OSS GET, and ranged reads the
	// cost-model planner chose over full-object reads. RangedBytes is the
	// span bytes fetched where a full read would have cost OSSBytes-sized
	// objects; OSSBytes above counts only bytes this job actually fetched.
	SharedHits  int
	SharedJoins int
	RangedReads int   // containers fetched via span reads
	RangedSpans int   // total GetRange calls those reads issued: spans cut where a part ends and by Split
	RangedBytes int64 // total span bytes fetched
}

// ReadAmplification is containers read per 100 MB of restored data, the
// paper's Fig 8 metric.
func (s Stats) ReadAmplification() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return float64(s.ContainersRead) / (float64(s.LogicalBytes) / (100 << 20))
}

// Restorer executes a restore sequence under one cache policy.
type Restorer interface {
	// Name identifies the policy ("fv", "opt", "alacc", "lru").
	Name() string
	// Restore streams every request's data to emit, fetching containers
	// through fetch as needed.
	Restore(seq []Request, fetch Fetcher, emit Emit) (Stats, error)
}

// Config sizes a cache policy. The budgets count the bytes of the chunks
// (OPT, LRU: containers) a policy holds, and every admission, eviction and
// Stats value follows from that count. They do not cap the process's
// memory for the chunk-granular policies: FV and ALACC keep a chunk as a
// sub-slice of the read-only fetched container, not a copy, so a
// container's whole payload stays reachable until the last chunk kept
// from it is consumed or evicted — at most what the restore has fetched
// (Stats.OSSBytes), whatever the budgets say (DESIGN.md §14).
type Config struct {
	// MemBytes is the in-memory cache capacity.
	MemBytes int64
	// DiskBytes is the FV disk layer capacity (0 = disabled). The layer is
	// a byte-counted map; the caller charges its local-disk cost.
	DiskBytes int64
	// LAW is the look-ahead window length in chunks.
	LAW int
	// FAABytes is ALACC's forward assembly area size; defaults to half of
	// MemBytes when zero.
	FAABytes int64
}

func (c Config) withDefaults() Config {
	if c.MemBytes <= 0 {
		c.MemBytes = 64 << 20
	}
	if c.LAW <= 0 {
		c.LAW = 4096
	}
	if c.FAABytes <= 0 {
		c.FAABytes = c.MemBytes / 2
	}
	return c
}

// New constructs a policy by name.
func New(name string, cfg Config) (Restorer, error) {
	switch name {
	case "fv":
		return NewFV(cfg), nil
	case "opt":
		return NewOPT(cfg), nil
	case "alacc":
		return NewALACC(cfg), nil
	case "lru":
		return NewLRU(cfg), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy %q", name)
	}
}

// countingFetcher wraps a Fetcher with the bookkeeping shared by every
// policy: container read counts, reread detection, and byte accounting.
type countingFetcher struct {
	fetch Fetcher
	seen  map[container.ID]bool
	stats *Stats
}

func newCountingFetcher(fetch Fetcher, stats *Stats) *countingFetcher {
	return &countingFetcher{fetch: fetch, seen: make(map[container.ID]bool), stats: stats}
}

func (f *countingFetcher) get(id container.ID) (*container.Container, error) {
	c, err := f.fetch(id)
	if err != nil {
		return nil, err
	}
	f.stats.ContainersRead++
	f.stats.OSSBytes += c.Size()
	if f.seen[id] {
		f.stats.Rereads++
	}
	f.seen[id] = true
	return c, nil
}
