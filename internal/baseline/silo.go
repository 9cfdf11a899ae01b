package baseline

import (
	"fmt"
	"sync"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// SiLO implements the similarity-locality deduplication of Xia et al.
// (ATC'11): the input stream is split into segments, similar segments are
// grouped into blocks, a small in-memory similarity hash table (SHTable)
// maps each segment's representative fingerprint to the block holding it,
// and a block-granularity cache exploits locality — when a similar segment
// is detected, its whole block's fingerprints are read (one OSS access)
// and nearby duplicates are filtered from the cache.
type SiLO struct {
	store oss.Store
	costs simclock.Costs
	cut   chunker.Cutter

	segmentChunks int // chunks per segment
	segsPerBlock  int // segments per block
	cacheBlocks   int // block cache capacity

	mu       sync.Mutex
	shtable  map[uint64]int // representative fp -> block number
	versions map[string]int

	// Block under construction.
	curBlock   int
	curSegs    int
	curFPs     []fpSize
	containers *container.Store
}

type fpSize struct {
	fp   fingerprint.FP
	id   container.ID
	size uint32
}

// NewSiLO opens a SiLO repository over an OSS store.
func NewSiLO(store oss.Store, costs simclock.Costs, params chunker.Params, containerCap int) (*SiLO, error) {
	cut, err := chunker.New("fastcdc", params)
	if err != nil {
		return nil, err
	}
	cs, err := container.NewStore(store, containerCap)
	if err != nil {
		return nil, err
	}
	return &SiLO{
		store:         store,
		costs:         costs,
		cut:           cut,
		segmentChunks: 512,
		segsPerBlock:  16,
		cacheBlocks:   32,
		shtable:       make(map[uint64]int),
		versions:      make(map[string]int),
		containers:    cs,
		curBlock:      1,
	}, nil
}

// Name implements System.
func (s *SiLO) Name() string { return "silo" }

func (s *SiLO) blockKey(n int) string { return fmt.Sprintf("silo/blocks/%08d", n) }

// encodeBlock serialises a block's fingerprint list.
func encodeBlock(fps []fpSize) []byte {
	out := make([]byte, 0, len(fps)*(fingerprint.Size+12))
	var tmp [12]byte
	for _, e := range fps {
		out = append(out, e.fp[:]...)
		for i := 0; i < 8; i++ {
			tmp[i] = byte(uint64(e.id) >> (8 * i))
		}
		tmp[8] = byte(e.size)
		tmp[9] = byte(e.size >> 8)
		tmp[10] = byte(e.size >> 16)
		tmp[11] = byte(e.size >> 24)
		out = append(out, tmp[:]...)
	}
	return out
}

func decodeBlock(b []byte) []fpSize {
	rec := fingerprint.Size + 12
	out := make([]fpSize, 0, len(b)/rec)
	for p := 0; p+rec <= len(b); p += rec {
		var e fpSize
		copy(e.fp[:], b[p:])
		q := p + fingerprint.Size
		var id uint64
		for i := 0; i < 8; i++ {
			id |= uint64(b[q+i]) << (8 * i)
		}
		e.id = container.ID(id)
		e.size = uint32(b[q+8]) | uint32(b[q+9])<<8 | uint32(b[q+10])<<16 | uint32(b[q+11])<<24
		out = append(out, e)
	}
	return out
}

// Backup implements System.
func (s *SiLO) Backup(fileID string, data []byte) (*Result, error) {
	acct := simclock.NewAccount()
	metered := oss.NewMetered(s.store, s.costs, acct)
	cs := s.containers.View(metered)
	builder := container.NewBuilder(cs)

	res := &Result{FileID: fileID, LogicalBytes: int64(len(data)), Account: acct}
	s.mu.Lock()
	res.Version = s.versions[fileID]
	s.versions[fileID] = res.Version + 1
	s.mu.Unlock()

	// Per-job block cache (LRU by insertion).
	cache := make(map[fingerprint.FP]fpSize)
	var cacheOrder []int // block numbers in load order
	loadedBlocks := make(map[int][]fpSize)
	loadBlock := func(n int) error {
		if _, ok := loadedBlocks[n]; ok {
			return nil
		}
		b, err := metered.Get(s.blockKey(n))
		if err != nil {
			return nil // block may be the one under construction
		}
		fps := decodeBlock(b)
		loadedBlocks[n] = fps
		cacheOrder = append(cacheOrder, n)
		for _, e := range fps {
			cache[e.fp] = e
			acct.ChargeCPU(simclock.PhaseIndexQuery, s.costs.IndexInsert)
		}
		if len(cacheOrder) > s.cacheBlocks {
			old := cacheOrder[0]
			cacheOrder = cacheOrder[1:]
			for _, e := range loadedBlocks[old] {
				delete(cache, e.fp)
			}
			delete(loadedBlocks, old)
		}
		return nil
	}

	stream := chunker.NewStream(data, s.cut, acct, s.costs)
	var seg []chunker.Chunk
	var segFPs []fingerprint.FP

	flushSegment := func() error {
		if len(seg) == 0 {
			return nil
		}
		// Representative fingerprint: the minimum (Broder sampling).
		rep := segFPs[0].Uint64()
		for _, fp := range segFPs[1:] {
			if v := fp.Uint64(); v < rep {
				rep = v
			}
		}
		s.mu.Lock()
		blockNo, similar := s.shtable[rep]
		s.mu.Unlock()
		acct.ChargeCPU(simclock.PhaseIndexQuery, s.costs.IndexLookup)
		if similar {
			if err := loadBlock(blockNo); err != nil {
				return err
			}
		}
		// Dedup the segment against the block cache.
		var outFPs []fpSize
		for i, ch := range seg {
			fp := segFPs[i]
			acct.ChargeCPU(simclock.PhaseIndexQuery, s.costs.IndexLookup)
			if e, dup := cache[fp]; dup {
				res.DuplicateBytes += int64(ch.Size())
				outFPs = append(outFPs, e)
			} else {
				id, err := builder.Add(fp, ch.Data)
				if err != nil {
					return err
				}
				e := fpSize{fp: fp, id: id, size: uint32(ch.Size())}
				res.StoredBytes += int64(ch.Size())
				cache[fp] = e // write-buffer locality
				outFPs = append(outFPs, e)
			}
			res.NumChunks++
		}
		// Append the segment to the current block; persist full blocks.
		s.mu.Lock()
		s.shtable[rep] = s.curBlock
		s.curFPs = append(s.curFPs, outFPs...)
		s.curSegs++
		var persist []fpSize
		var persistNo int
		if s.curSegs >= s.segsPerBlock {
			persist = s.curFPs
			persistNo = s.curBlock
			s.curBlock++
			s.curSegs = 0
			s.curFPs = nil
		}
		s.mu.Unlock()
		if persist != nil {
			if err := metered.Put(s.blockKey(persistNo), encodeBlock(persist)); err != nil {
				return err
			}
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
	// Persist the partial block so subsequent versions can dedup against
	// it (SiLO flushes blocks at backup completion).
	s.mu.Lock()
	if len(s.curFPs) > 0 {
		persist := s.curFPs
		persistNo := s.curBlock
		s.curBlock++
		s.curSegs = 0
		s.curFPs = nil
		s.mu.Unlock()
		if err := metered.Put(s.blockKey(persistNo), encodeBlock(persist)); err != nil {
			return nil, err
		}
	} else {
		s.mu.Unlock()
	}
	res.Elapsed = acct.ElapsedPipelined()
	return res, nil
}
