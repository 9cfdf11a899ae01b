package globalindex

import (
	"fmt"
	"sync/atomic"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/pipe"
)

// Sharded partitions the global fingerprint index by hash prefix into N
// G-shards (the shared-nothing clustered layout): shard k owns the
// contiguous fingerprint range where int(fp[0])*N/256 == k, so shard
// boundaries nest as N grows and a full Scan over shards 0..N-1 visits
// fingerprints in global order. Each shard is a complete Index over its
// own backend (a plain kvstore or a replicated group), so shard
// operations proceed concurrently instead of serialising on one LSM
// mutex.
//
// It has one write, PutBatch (deletions are entries naming
// container.Invalid), and one lookup, GetBatch; a caller with one
// fingerprint passes a batch of one. With one shard every method delegates
// straight to it, keeping the single-G-node configuration byte-identical
// to the unsharded code path.
type Sharded struct {
	shards  []*Index
	workers int

	// ops counts routed operations — one per PutBatch or GetBatch, whatever
	// its size; the chaos harness registers an OnOp hook to fire
	// shard-kill/leader-kill schedules at exact op counts mid-maintenance.
	ops  atomic.Int64
	onOp atomic.Value // func(int64)
}

// NewSharded assembles a sharded view over per-shard indexes (order is
// the shard map: shards[k] owns prefix range k). workers bounds the
// per-call shard fan-out; <1 runs shards serially, mirroring the
// MaintWorkers convention.
func NewSharded(shards []*Index, workers int) (*Sharded, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("globalindex: sharded view needs at least one shard")
	}
	if workers < 1 {
		workers = 1
	}
	return &Sharded{shards: shards, workers: workers}, nil
}

// ShardFor maps a fingerprint to its owning shard: contiguous prefix
// ranges, so global fingerprint order is the concatenation of the
// shards' orders.
func (s *Sharded) ShardFor(fp fingerprint.FP) int {
	return int(fp[0]) * len(s.shards) / 256
}

// OnOp registers a hook receiving the running operation count before
// each routed index operation. The chaos harness uses it to inject
// faults at deterministic points mid-sweep; the hook may be called from
// concurrent maintenance workers and must be goroutine-safe.
func (s *Sharded) OnOp(fn func(n int64)) {
	s.onOp.Store(fn)
}

// Ops returns the routed-operation count.
func (s *Sharded) Ops() int64 { return s.ops.Load() }

func (s *Sharded) step() {
	n := s.ops.Add(1)
	if fn, ok := s.onOp.Load().(func(int64)); ok && fn != nil {
		fn(n)
	}
}

// forEachShard runs fn over every shard id across the fan-out pool,
// returning the first error (remaining dispatches are abandoned).
func (s *Sharded) forEachShard(fn func(k int) error) error {
	return pipe.FanOut(len(s.shards), s.workers, fn)
}

// Get resolves fp through its owning shard: GetBatch of one fingerprint.
// Nothing in the product probes one fingerprint at a time; benchmark/
// resolves a restore's moved chunks with it.
func (s *Sharded) Get(fp fingerprint.FP) (container.ID, bool, error) {
	ids, found, _, err := s.GetBatch([]fingerprint.FP{fp})
	if err != nil {
		return container.Invalid, false, err
	}
	return ids[0], found[0], nil
}

// PutBatch — the one write: puts, and deletions naming container.Invalid —
// splits the entries per shard (preserving relative order, so
// same-fingerprint conflicts still resolve last-write-wins like the
// unsharded path) and commits the sub-batches concurrently: one batch, and
// on a replicated shard one log record, per shard touched.
func (s *Sharded) PutBatch(entries []Entry) error {
	s.step()
	if len(entries) == 0 {
		return nil
	}
	if len(s.shards) == 1 {
		return s.shards[0].PutBatch(entries)
	}
	groups := make([][]Entry, len(s.shards))
	for i := range entries {
		k := s.ShardFor(entries[i].FP)
		groups[k] = append(groups[k], entries[i])
	}
	return s.forEachShard(func(k int) error {
		if len(groups[k]) == 0 {
			return nil
		}
		return s.shards[k].PutBatch(groups[k])
	})
}

// GetBatch — the one lookup — fans out per shard. Result slices are
// positional (shard workers write disjoint indexes), so the answer is
// identical to the unsharded call.
func (s *Sharded) GetBatch(fps []fingerprint.FP) (ids []container.ID, found []bool, misses int, err error) {
	s.step()
	if len(s.shards) == 1 {
		return s.shards[0].GetBatch(fps)
	}
	ids = make([]container.ID, len(fps))
	found = make([]bool, len(fps))
	if len(fps) == 0 {
		return ids, found, 0, nil
	}
	groups := make([][]int, len(s.shards))
	for i := range fps {
		k := s.ShardFor(fps[i])
		groups[k] = append(groups[k], i)
	}
	err = s.forEachShard(func(k int) error {
		if len(groups[k]) == 0 {
			return nil
		}
		sub := make([]fingerprint.FP, len(groups[k]))
		for j, i := range groups[k] {
			sub[j] = fps[i]
		}
		sids, sfound, _, serr := s.shards[k].GetBatch(sub)
		if serr != nil {
			return serr
		}
		for j, i := range groups[k] {
			ids[i] = sids[j]
			found[i] = sfound[j]
		}
		return nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	for _, ok := range found {
		if !ok {
			misses++
		}
	}
	return ids, found, misses, nil
}

// Scan visits all entries in global fingerprint order: shards own
// contiguous prefix ranges, so visiting them in shard order is key
// order.
func (s *Sharded) Scan(fn func(fp fingerprint.FP, id container.ID) bool) error {
	stopped := false
	for _, sh := range s.shards {
		if err := sh.Scan(func(fp fingerprint.FP, id container.ID) bool {
			if !fn(fp, id) {
				stopped = true
				return false
			}
			return true
		}); err != nil {
			return err
		}
		if stopped {
			return nil
		}
	}
	return nil
}

// Stats sums the per-shard snapshots (the entry count and the KV engine
// counters are all additive).
func (s *Sharded) Stats() Stats {
	var out Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		out.Entries += st.Entries
		out.KV.Entries += st.KV.Entries
		out.KV.Puts += st.KV.Puts
		out.KV.Gets += st.KV.Gets
		out.KV.Deletes += st.KV.Deletes
		out.KV.BloomNegative += st.KV.BloomNegative
		out.KV.TableReads += st.KV.TableReads
		out.KV.BlockCacheHits += st.KV.BlockCacheHits
		out.KV.Flushes += st.KV.Flushes
		out.KV.Compactions += st.KV.Compactions
		out.KV.Syncs += st.KV.Syncs
		out.KV.WALReplayed += st.KV.WALReplayed
		out.KV.TablesLive += st.KV.TablesLive
		out.KV.WALSegments += st.KV.WALSegments
	}
	return out
}

// Sync makes every prior mutation on every shard durable: one put per
// shard with buffered writes, the shards in parallel.
func (s *Sharded) Sync() error {
	return s.forEachShard(func(k int) error { return s.shards[k].Sync() })
}

// Close closes every shard, the shards in parallel as Sync syncs them (a
// close flushes its engine, so K shards take one flush chain's time, not
// K), and returns the first error in shard order. A shard is closed
// whatever another's close returns.
func (s *Sharded) Close() error {
	errs := make([]error, len(s.shards))
	s.forEachShard(func(k int) error {
		errs[k] = s.shards[k].Close()
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
