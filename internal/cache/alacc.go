package cache

import (
	"container/list"
	"fmt"

	"slimstore/internal/fingerprint"
)

// ALACC is the look-ahead window assisted chunk cache of Cao et al.
// (FAST'18), the paper's strongest restore-cache baseline: a forward
// assembly area (FAA) assembles a span of the output stream directly from
// container reads, while a chunk cache retains chunks that the LAW shows
// will be needed beyond the current span.
//
// This implementation fixes the FAA/chunk-cache split (the original adapts
// it dynamically); the paper's comparison depends on ALACC's structural
// property — fragments beyond the LAW are unprotected — which is
// unaffected by the adaptivity.
type ALACC struct {
	cfg Config
}

// NewALACC returns an ALACC policy.
func NewALACC(cfg Config) *ALACC { return &ALACC{cfg: cfg.withDefaults()} }

// Name implements Restorer.
func (a *ALACC) Name() string { return "alacc" }

// Restore implements Restorer.
func (a *ALACC) Restore(seq []Request, fetch Fetcher, emit Emit) (Stats, error) {
	var stats Stats
	cf := newCountingFetcher(fetch, &stats)

	// Chunk cache: bounded LRU over chunk payloads.
	type centry struct {
		fp   fingerprint.FP
		data []byte
		elem *list.Element
	}
	ccap := a.cfg.MemBytes - a.cfg.FAABytes
	if ccap < 0 {
		ccap = 0
	}
	ccache := make(map[fingerprint.FP]*centry)
	order := list.New()
	var cbytes int64
	insert := func(fp fingerprint.FP, data []byte) {
		if ccap <= 0 {
			return
		}
		if e, ok := ccache[fp]; ok {
			order.MoveToFront(e.elem)
			return
		}
		// data is a sub-slice of the read-only fetched container; the
		// cache keeps it, not a copy (cbytes counts chunk bytes: Config).
		e := &centry{fp: fp, data: data}
		e.elem = order.PushFront(e)
		ccache[fp] = e
		cbytes += int64(len(data))
		for cbytes > ccap && order.Len() > 0 {
			back := order.Back()
			v := back.Value.(*centry)
			order.Remove(back)
			delete(ccache, v.fp)
			cbytes -= int64(len(v.data))
		}
	}

	i := 0
	for i < len(seq) {
		// Build the FAA span [i, j).
		j := i
		var span int64
		for j < len(seq) && (j == i || span+int64(seq[j].Size) <= a.cfg.FAABytes) {
			span += int64(seq[j].Size)
			j++
		}
		// Fingerprints the LAW sees beyond this span.
		beyond := make(map[fingerprint.FP]bool)
		for p := j; p < i+a.cfg.LAW && p < len(seq); p++ {
			beyond[seq[p].FP] = true
		}

		assembled := make([][]byte, j-i)
		for p := i; p < j; p++ {
			if assembled[p-i] != nil {
				continue
			}
			stats.Requests++
			req := &seq[p]
			if e, ok := ccache[req.FP]; ok {
				stats.MemHits++
				order.MoveToFront(e.elem)
				assembled[p-i] = e.data
				continue
			}
			c, err := cf.get(req.Container)
			if err != nil {
				return stats, err
			}
			// Fill every unassembled span position served by this
			// container (FAA copies straight from the read buffer).
			for q := p; q < j; q++ {
				if assembled[q-i] != nil || seq[q].Container != req.Container {
					continue
				}
				data, err := c.Get(seq[q].FP)
				if err != nil {
					return stats, err
				}
				assembled[q-i] = data
				if q > p {
					stats.Requests++
				}
			}
			// Chunks needed beyond the span (within the LAW) enter the
			// chunk cache.
			for k := range c.Meta.Chunks {
				cm := &c.Meta.Chunks[k]
				if cm.Deleted || !beyond[cm.FP] {
					continue
				}
				data, err := c.ChunkData(cm)
				if err != nil {
					return stats, err
				}
				insert(cm.FP, data)
			}
		}
		for p := i; p < j; p++ {
			d := assembled[p-i]
			if d == nil {
				return stats, fmt.Errorf("cache: alacc: position %d unassembled", p)
			}
			stats.LogicalBytes += int64(len(d))
			if err := emit(d); err != nil {
				return stats, err
			}
		}
		i = j
	}
	return stats, nil
}
