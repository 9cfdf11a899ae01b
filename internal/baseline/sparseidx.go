package baseline

import (
	"fmt"
	"sort"
	"sync"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// SparseIndexing implements Lillibridge et al.'s sparse indexing
// (FAST'09): the stream is split into segments, each segment samples its
// fingerprints (mod-R "hooks"), a small in-memory sparse index maps hooks
// to the manifests (stored segment recipes) containing them, and each
// incoming segment deduplicates only against its top-k "champion"
// manifests — the previously stored segments sharing the most hooks.
type SparseIndexing struct {
	store oss.Store
	costs simclock.Costs
	cut   chunker.Cutter

	segmentChunks int
	sampler       fingerprint.Sampler
	champions     int // max champions per segment
	maxPerHook    int // max manifest ids retained per hook

	mu        sync.Mutex
	index     map[uint64][]int // hook -> manifest ids (newest last)
	nextMan   int
	versions  map[string]int
	container *container.Store
}

// NewSparseIndexing opens a sparse-indexing repository over an OSS store.
func NewSparseIndexing(store oss.Store, costs simclock.Costs, params chunker.Params, containerCap int) (*SparseIndexing, error) {
	cut, err := chunker.New("fastcdc", params)
	if err != nil {
		return nil, err
	}
	cs, err := container.NewStore(store, containerCap)
	if err != nil {
		return nil, err
	}
	return &SparseIndexing{
		store:         store,
		costs:         costs,
		cut:           cut,
		segmentChunks: 512,
		sampler:       fingerprint.NewSampler(32),
		champions:     8,
		maxPerHook:    4,
		index:         make(map[uint64][]int),
		nextMan:       1,
		versions:      make(map[string]int),
		container:     cs,
	}, nil
}

// Name implements System.
func (s *SparseIndexing) Name() string { return "sparse-indexing" }

func (s *SparseIndexing) manifestKey(n int) string {
	return fmt.Sprintf("sparseidx/manifests/%08d", n)
}

// Backup implements System.
func (s *SparseIndexing) Backup(fileID string, data []byte) (*Result, error) {
	acct := simclock.NewAccount()
	metered := oss.NewMetered(s.store, s.costs, acct)
	cs := s.container.View(metered)
	builder := container.NewBuilder(cs)

	res := &Result{FileID: fileID, LogicalBytes: int64(len(data)), Account: acct}
	s.mu.Lock()
	res.Version = s.versions[fileID]
	s.versions[fileID] = res.Version + 1
	s.mu.Unlock()

	manifestCache := make(map[int][]fpSize)

	stream := chunker.NewStream(data, s.cut, acct, s.costs)
	var seg []chunker.Chunk
	var segFPs []fingerprint.FP

	flushSegment := func() error {
		if len(seg) == 0 {
			return nil
		}
		// Hooks: sampled fingerprints of this segment.
		var hooks []uint64
		for _, fp := range segFPs {
			if s.sampler.Sample(fp) {
				hooks = append(hooks, fp.Uint64())
			}
		}
		if len(hooks) == 0 {
			hooks = []uint64{segFPs[0].Uint64()} // always at least one hook
		}

		// Champion selection: manifests sharing the most hooks.
		votes := make(map[int]int)
		s.mu.Lock()
		for _, h := range hooks {
			acct.ChargeCPU(simclock.PhaseIndexQuery, s.costs.IndexLookup)
			for _, man := range s.index[h] {
				votes[man]++
			}
		}
		s.mu.Unlock()
		type cand struct{ man, votes int }
		cands := make([]cand, 0, len(votes))
		for m, v := range votes {
			cands = append(cands, cand{m, v})
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].votes != cands[j].votes {
				return cands[i].votes > cands[j].votes
			}
			return cands[i].man > cands[j].man // prefer newer manifests
		})
		if len(cands) > s.champions {
			cands = cands[:s.champions]
		}

		// Load champion manifests (one OSS read each) into a dedup set.
		dedup := make(map[fingerprint.FP]fpSize)
		for _, c := range cands {
			fps, ok := manifestCache[c.man]
			if !ok {
				b, err := metered.Get(s.manifestKey(c.man))
				if err != nil {
					continue
				}
				fps = decodeBlock(b)
				manifestCache[c.man] = fps
			}
			for _, e := range fps {
				dedup[e.fp] = e
				acct.ChargeCPU(simclock.PhaseIndexQuery, s.costs.IndexInsert)
			}
		}

		// Dedup the segment.
		var outFPs []fpSize
		for i, ch := range seg {
			fp := segFPs[i]
			acct.ChargeCPU(simclock.PhaseIndexQuery, s.costs.IndexLookup)
			if e, dup := dedup[fp]; dup {
				res.DuplicateBytes += int64(ch.Size())
				outFPs = append(outFPs, e)
			} else {
				id, err := builder.Add(fp, ch.Data)
				if err != nil {
					return err
				}
				e := fpSize{fp: fp, id: id, size: uint32(ch.Size())}
				res.StoredBytes += int64(ch.Size())
				dedup[fp] = e
				outFPs = append(outFPs, e)
			}
			res.NumChunks++
		}

		// Persist this segment's manifest and index its hooks.
		s.mu.Lock()
		man := s.nextMan
		s.nextMan++
		for _, h := range hooks {
			lst := append(s.index[h], man)
			if len(lst) > s.maxPerHook {
				lst = lst[len(lst)-s.maxPerHook:]
			}
			s.index[h] = lst
		}
		s.mu.Unlock()
		if err := metered.Put(s.manifestKey(man), encodeBlock(outFPs)); err != nil {
			return err
		}

		seg = seg[:0]
		segFPs = segFPs[:0]
		return nil
	}

	for {
		ch, ok := stream.Next()
		if !ok {
			break
		}
		fp := fingerprint.OfBytes(ch.Data)
		acct.ChargeCPUBytes(simclock.PhaseFingerprint, int64(ch.Size()), s.costs.SHA1PerByte)
		seg = append(seg, ch)
		segFPs = append(segFPs, fp)
		if len(seg) >= s.segmentChunks {
			if err := flushSegment(); err != nil {
				return nil, err
			}
		}
	}
	if err := flushSegment(); err != nil {
		return nil, err
	}
	if err := builder.Flush(); err != nil {
		return nil, err
	}
	res.Elapsed = acct.ElapsedPipelined()
	return res, nil
}
