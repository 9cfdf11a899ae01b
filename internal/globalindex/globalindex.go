// Package globalindex maintains the global fingerprint index (paper
// §III-B): the mapping from every chunk fingerprint of a user to the
// container storing the chunk, persisted in Rocks-OSS (internal/kvstore).
//
// G-node uses it for exact reverse deduplication (§VI-A): newly written
// chunks are filtered through an in-memory global bloom filter first —
// unique chunks short-circuit without any OSS access — and only potential
// duplicates pay an LSM point lookup.
package globalindex

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"slimstore/internal/cbf"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/kvstore"
	"slimstore/internal/oss"
)

// Options configure the index.
type Options struct {
	// KV tunes the underlying LSM store.
	KV kvstore.Options
	// BloomCapacity sizes the global bloom filter (expected distinct
	// chunks). Default 1<<22 (~4M chunks).
	BloomCapacity int
	// BloomFPRate is the filter's false-positive rate. Default 0.01.
	BloomFPRate float64
}

// bloomShards stripes the in-memory bloom filter. Every chunk of every
// concurrent backup/restore job passes through the filter, so one mutex
// here would be the system's hottest lock; fingerprints are uniformly
// distributed, so sharding by the first byte spreads the traffic evenly.
const bloomShards = 64

// bloomShard is one stripe of the global bloom filter.
type bloomShard struct {
	mu    sync.RWMutex
	bloom *cbf.Bloom
	n     int64
}

// Backend is the persistent KV engine an Index runs on: a plain
// kvstore.DB for the single-node layout, or a repl.Group replicating
// the same batches across a quorum of kvstores. Its one write is a batch
// (Apply) and its one lookup a multi-get (GetMulti) — exactly the slice of
// the kvstore API the index uses, so the DB satisfies it without
// adaptation.
type Backend interface {
	GetMulti(keys [][]byte) (values [][]byte, found []bool, err error)
	Apply(b *kvstore.Batch) error
	Scan(start, end []byte, fn func(key, value []byte) bool) error
	Sync() error
	Close() error
	Stats() kvstore.Stats
}

// Index is the global fingerprint index. Safe for concurrent use: the
// bloom filter is sharded by fingerprint prefix (reads take a shard
// RLock), the stats are atomics, and the LSM store synchronises itself.
type Index struct {
	db     Backend
	shards [bloomShards]bloomShard

	// Stats.
	bloomSkips atomic.Int64 // lookups answered "unique" by the filter alone
	lookups    atomic.Int64
}

func (x *Index) shard(fp fingerprint.FP) *bloomShard {
	return &x.shards[int(fp[0])%bloomShards]
}

// Open opens the index over an OSS store, rebuilding the bloom filter from
// the persisted entries.
func Open(store oss.Store, opts Options) (*Index, error) {
	if opts.KV.Prefix == "" {
		opts.KV.Prefix = "gidx/"
	}
	db, err := kvstore.Open(store, opts.KV)
	if err != nil {
		return nil, fmt.Errorf("globalindex: %w", err)
	}
	return OpenBackend(db, opts)
}

// OpenBackend opens the index over an already-constructed backend (a
// replicated group, a pre-tuned kvstore), rebuilding the bloom filter
// from the persisted entries. Options.KV is ignored — the backend was
// built with its own engine tuning.
func OpenBackend(db Backend, opts Options) (*Index, error) {
	if opts.BloomCapacity <= 0 {
		opts.BloomCapacity = 1 << 22
	}
	if opts.BloomFPRate <= 0 {
		opts.BloomFPRate = 0.01
	}
	x := &Index{db: db}
	per := opts.BloomCapacity / bloomShards
	if per < 1024 {
		per = 1024
	}
	for i := range x.shards {
		x.shards[i].bloom = cbf.NewBloom(per, opts.BloomFPRate)
	}
	err := db.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) == fingerprint.Size {
			var fp fingerprint.FP
			copy(fp[:], k)
			s := x.shard(fp)
			s.bloom.Add(fp)
			s.n++
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("globalindex: rebuild bloom: %w", err)
	}
	return x, nil
}

// Entry is one index mutation: fp is (now) stored in container ID, or,
// when ID is container.Invalid, fp is stored nowhere and its entry goes.
type Entry struct {
	FP fingerprint.FP
	ID container.ID
}

// PutBatch applies a set of mutations — the index's only write — in one
// group-committed kvstore batch: one WAL record (one replicated log record
// on a repl backend), one lock acquisition. Entries apply in slice order,
// so a batch naming the same fingerprint twice resolves like the
// equivalent sequence of batches (last write wins). Each bloom shard is
// locked once, and its distinct-entry estimate n counts every fingerprint
// put for the first time. The filter cannot delete, so a deleted
// fingerprint keeps a stale positive until the next Open; that costs one
// wasted lookup, never a wrong answer.
func (x *Index) PutBatch(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	var b kvstore.Batch
	var v [8]byte
	var byShard [bloomShards][]fingerprint.FP
	for i := range entries {
		e := &entries[i]
		if e.ID == container.Invalid {
			b.Delete(e.FP[:])
			continue
		}
		binary.LittleEndian.PutUint64(v[:], uint64(e.ID))
		b.Put(e.FP[:], v[:])
		si := int(e.FP[0]) % bloomShards
		byShard[si] = append(byShard[si], e.FP)
	}
	if err := x.db.Apply(&b); err != nil {
		return fmt.Errorf("globalindex: put batch of %d: %w", len(entries), err)
	}
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		s := &x.shards[si]
		s.mu.Lock()
		for _, fp := range byShard[si] {
			if !s.bloom.MayContain(fp) {
				s.n++
			}
			s.bloom.Add(fp)
		}
		s.mu.Unlock()
	}
	return nil
}

// GetBatch resolves many fingerprints in one pass — the index's only
// lookup: bloom probes grouped per shard (one RLock each), then a single
// kvstore GetMulti for the bloom-positive survivors. Results are parallel
// slices; found[i] is false for unknown fingerprints. bloomSkips reports
// how many of THESE lookups the filter answered alone — callers tracking
// per-pass filter effectiveness (G-node stats) need the local count, not a
// delta of the global counter, which concurrent jobs also advance.
func (x *Index) GetBatch(fps []fingerprint.FP) (ids []container.ID, found []bool, bloomSkips int, err error) {
	ids = make([]container.ID, len(fps))
	found = make([]bool, len(fps))
	if len(fps) == 0 {
		return ids, found, 0, nil
	}
	x.lookups.Add(int64(len(fps)))

	var byShard [bloomShards][]int
	for i := range fps {
		si := int(fps[i][0]) % bloomShards
		byShard[si] = append(byShard[si], i)
	}
	survivors := make([]int, 0, len(fps))
	for si := range byShard {
		if len(byShard[si]) == 0 {
			continue
		}
		s := &x.shards[si]
		s.mu.RLock()
		for _, i := range byShard[si] {
			if s.bloom.MayContain(fps[i]) {
				survivors = append(survivors, i)
			} else {
				bloomSkips++
			}
		}
		s.mu.RUnlock()
	}
	x.bloomSkips.Add(int64(bloomSkips))
	if len(survivors) == 0 {
		return ids, found, bloomSkips, nil
	}
	sort.Ints(survivors) // deterministic probe order regardless of sharding

	keys := make([][]byte, len(survivors))
	for j, i := range survivors {
		keys[j] = fps[i][:]
	}
	values, hit, err := x.db.GetMulti(keys)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("globalindex: get batch of %d: %w", len(fps), err)
	}
	for j, i := range survivors {
		if hit[j] && len(values[j]) == 8 {
			ids[i] = container.ID(binary.LittleEndian.Uint64(values[j]))
			found[i] = true
		}
	}
	return ids, found, bloomSkips, nil
}

// Scan visits all (fingerprint, container) pairs in fingerprint order.
func (x *Index) Scan(fn func(fp fingerprint.FP, id container.ID) bool) error {
	return x.db.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) != fingerprint.Size || len(v) != 8 {
			return true
		}
		var fp fingerprint.FP
		copy(fp[:], k)
		return fn(fp, container.ID(binary.LittleEndian.Uint64(v)))
	})
}

// Stats reports index activity.
type Stats struct {
	Entries    int64
	Lookups    int64
	BloomSkips int64
	KV         kvstore.Stats
}

// Stats returns a snapshot.
func (x *Index) Stats() Stats {
	s := Stats{Lookups: x.lookups.Load(), BloomSkips: x.bloomSkips.Load()}
	for i := range x.shards {
		sh := &x.shards[i]
		sh.mu.RLock()
		s.Entries += sh.n
		sh.mu.RUnlock()
	}
	s.KV = x.db.Stats()
	return s
}

// Sync is the durability point: when it returns, every prior mutation
// survives a crash. One OSS put on a plain kvstore backend.
func (x *Index) Sync() error { return x.db.Sync() }

// Flush pushes the memtable of an LSM backend out to a table, so that
// lookups are served from tables. It is not a durability point and no
// product code calls it; benchmark/replay.go does, on a scratch index.
func (x *Index) Flush() error {
	if f, ok := x.db.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return x.db.Sync()
}

// Close syncs and closes the underlying store.
func (x *Index) Close() error { return x.db.Close() }
