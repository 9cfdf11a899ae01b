package cache

import (
	"fmt"

	"slimstore/internal/cbf"
	"slimstore/internal/fingerprint"
)

// FV is SLIMSTORE's restore cache with a full-vision replacement policy
// (paper §V-A). It is chunk-granular and built from the complete restore
// information in the recipe:
//
//   - A counting bloom filter (CBF) records how many future references
//     each chunk has; counts decrement as chunks are restored. A chunk
//     whose count is zero (status S_U) is useless and leaves the cache
//     immediately.
//   - A look-ahead window marks chunks needed soon (S_I). Chunks with
//     future references beyond the window (S_L) are protected too — this
//     is what distinguishes FV from LAW-bounded caches: large-span and
//     self-referencing fragments outside the window cannot be evicted.
//   - The cache is two-layer: when memory fills with useful chunks, S_L
//     chunks swap to the L-node's local disk (Cache_d) and return before
//     use, avoiding OSS rereads entirely.
//
// With sufficient mem+disk capacity every container is read exactly once.
type FV struct {
	cfg Config
}

// NewFV returns a full-vision cache policy.
func NewFV(cfg Config) *FV { return &FV{cfg: cfg.withDefaults()} }

// Name implements Restorer.
func (f *FV) Name() string { return "fv" }

// fvState carries the per-run state.
type fvState struct {
	cfg  Config
	refs *cbf.Counting // future reference counts (the per-file CBF)
	law  map[fingerprint.FP]int

	mem       map[fingerprint.FP][]byte
	memOrder  []fingerprint.FP // insertion order, for deterministic demotion
	memBytes  int64
	disk      *spillStore
	diskOrder []fingerprint.FP

	stats *Stats
}

// Restore implements Restorer.
func (f *FV) Restore(seq []Request, fetch Fetcher, emit Emit) (Stats, error) {
	var stats Stats
	cf := newCountingFetcher(fetch, &stats)
	st := &fvState{
		cfg:   f.cfg,
		refs:  cbf.NewCounting(len(seq)+16, 0.001),
		law:   make(map[fingerprint.FP]int),
		mem:   make(map[fingerprint.FP][]byte),
		disk:  newSpillStore(),
		stats: &stats,
	}
	// Full vision: the whole sequence populates the CBF up front.
	for i := range seq {
		st.refs.Add(seq[i].FP)
	}
	for i := 0; i < f.cfg.LAW && i < len(seq); i++ {
		st.law[seq[i].FP]++
	}

	for i := range seq {
		req := &seq[i]
		stats.Requests++
		if i > 0 {
			if j := i + f.cfg.LAW - 1; j < len(seq) {
				st.law[seq[j].FP]++
			}
		}

		data, ok := st.mem[req.FP]
		switch {
		case ok:
			stats.MemHits++
		default:
			if d, onDisk := st.disk.take(req.FP); onDisk {
				stats.DiskHits++
				stats.DiskHitBytes += int64(len(d))
				st.insertMem(req.FP, d)
				data = d
				break
			}
			// Miss: read the whole container, keep only useful chunks.
			// The requested chunk is captured first and admitted last so
			// admission pressure from its container-mates can never evict
			// the chunk this very request needs.
			c, err := cf.get(req.Container)
			if err != nil {
				return stats, err
			}
			var reqData []byte
			for j := range c.Meta.Chunks {
				cm := &c.Meta.Chunks[j]
				if cm.FP != req.FP {
					continue
				}
				reqData, err = c.ChunkData(cm)
				if err != nil {
					return stats, err
				}
				break
			}
			if reqData == nil {
				return stats, fmt.Errorf("cache: fv: chunk %s missing from container %s",
					req.FP.Short(), req.Container)
			}
			for j := range c.Meta.Chunks {
				cm := &c.Meta.Chunks[j]
				if cm.FP == req.FP || cm.Deleted || st.refs.Count(cm.FP) == 0 {
					continue // the request itself is admitted last; S_U never
				}
				if _, inMem := st.mem[cm.FP]; inMem {
					continue
				}
				if st.disk.has(cm.FP) {
					continue
				}
				payload, err := c.ChunkData(cm)
				if err != nil {
					return stats, err
				}
				st.insertMem(cm.FP, payload)
			}
			st.insertMem(req.FP, reqData)
			data = reqData
		}

		stats.LogicalBytes += int64(len(data))
		if err := emit(data); err != nil {
			return stats, err
		}

		// The reference is consumed; S_U chunks leave immediately.
		st.refs.Remove(req.FP)
		if st.refs.Count(req.FP) == 0 {
			if d, okm := st.mem[req.FP]; okm {
				st.memBytes -= int64(len(d))
				delete(st.mem, req.FP)
			}
			st.disk.drop(req.FP)
		}
		// Position i leaves the window.
		if n := st.law[req.FP]; n <= 1 {
			delete(st.law, req.FP)
		} else {
			st.law[req.FP] = n - 1
		}
	}
	return stats, nil
}

// insertMem admits a chunk to the memory layer, demoting S_L chunks to the
// disk layer (and, under extreme pressure, dropping from disk) to respect
// capacities. Both layers hold data itself — a sub-slice of the read-only
// fetched container — so a chunk is admitted, demoted and promoted without
// being copied; memBytes and the spill layer count chunk bytes, not the
// containers those slices keep reachable (see Config).
func (s *fvState) insertMem(fp fingerprint.FP, data []byte) {
	s.mem[fp] = data
	s.memOrder = append(s.memOrder, fp)
	s.memBytes += int64(len(data))

	// Compact the order list when stale entries dominate, keeping victim
	// scans amortised-linear.
	if len(s.memOrder) > 2*len(s.mem)+16 {
		live := s.memOrder[:0]
		seen := make(map[fingerprint.FP]bool, len(s.mem))
		for _, k := range s.memOrder {
			if _, ok := s.mem[k]; ok && !seen[k] {
				seen[k] = true
				live = append(live, k)
			}
		}
		s.memOrder = live
	}

	for s.memBytes > s.cfg.MemBytes && len(s.mem) > 1 {
		victim, ok := s.pickMemVictim(fp)
		if !ok {
			break
		}
		d := s.mem[victim]
		s.memBytes -= int64(len(d))
		delete(s.mem, victim)
		if s.cfg.DiskBytes > 0 {
			s.stats.DiskSwaps++
			s.stats.DiskSwapBytes += int64(len(d))
			s.disk.put(victim, d)
			s.diskOrder = append(s.diskOrder, victim)
			for s.disk.bytes > s.cfg.DiskBytes && len(s.disk.mem) > 0 {
				s.dropOldestDisk()
			}
		}
	}
}

// pickMemVictim prefers the oldest S_L chunk (future use beyond the LAW);
// if every cached chunk is S_I it takes the oldest chunk that is not the
// one just inserted.
func (s *fvState) pickMemVictim(justInserted fingerprint.FP) (fingerprint.FP, bool) {
	// First pass: oldest S_L.
	for _, fp := range s.memOrder {
		if _, live := s.mem[fp]; !live {
			continue
		}
		if fp == justInserted {
			continue
		}
		if s.law[fp] == 0 {
			return fp, true
		}
	}
	// Second pass: oldest anything (all S_I).
	for _, fp := range s.memOrder {
		if _, live := s.mem[fp]; !live {
			continue
		}
		if fp == justInserted {
			continue
		}
		return fp, true
	}
	return fingerprint.FP{}, false
}

func (s *fvState) dropOldestDisk() {
	for len(s.diskOrder) > 0 {
		fp := s.diskOrder[0]
		s.diskOrder = s.diskOrder[1:]
		if s.disk.has(fp) {
			s.disk.drop(fp)
			return
		}
	}
	// diskOrder exhausted but entries remain (shouldn't happen): clear one.
	for fp := range s.disk.mem {
		s.disk.drop(fp)
		return
	}
}
