package cache

import (
	"slimstore/internal/container"
)

// OPT is the look-ahead-window container cache used by HAR (paper §II,
// "optimal restore cache"): Belady's optimal replacement restricted to the
// LAW. The victim is the cached container whose next use lies furthest in
// the window — or outside it entirely. Because the unit is a whole
// container, useless chunks occupy cache space, which is the weakness the
// paper's Fig 8 demonstrates.
type OPT struct {
	cfg Config
}

// NewOPT returns an OPT/LAW container cache policy.
func NewOPT(cfg Config) *OPT { return &OPT{cfg: cfg.withDefaults()} }

// Name implements Restorer.
func (o *OPT) Name() string { return "opt" }

// posQueue is a FIFO of upcoming positions (within the LAW) of one
// container.
type posQueue struct {
	q []int
}

func (p *posQueue) push(i int)  { p.q = append(p.q, i) }
func (p *posQueue) empty() bool { return len(p.q) == 0 }
func (p *posQueue) front() int  { return p.q[0] }
func (p *posQueue) popIf(i int) {
	if len(p.q) > 0 && p.q[0] == i {
		p.q = p.q[1:]
	}
}

// Restore implements Restorer.
func (o *OPT) Restore(seq []Request, fetch Fetcher, emit Emit) (Stats, error) {
	var stats Stats
	cf := newCountingFetcher(fetch, &stats)

	// next[id] holds the positions of id's chunks inside the current LAW.
	next := make(map[container.ID]*posQueue)
	enter := func(i int) {
		if i >= len(seq) {
			return
		}
		id := seq[i].Container
		pq := next[id]
		if pq == nil {
			pq = &posQueue{}
			next[id] = pq
		}
		pq.push(i)
	}
	// Prime the window [0, LAW).
	for i := 0; i < o.cfg.LAW && i < len(seq); i++ {
		enter(i)
	}

	cached := make(map[container.ID]*container.Container)
	var bytes int64

	evictOne := func() {
		// Victim: no use in LAW beats furthest next use; ties break on the
		// smaller ID for determinism.
		var victim container.ID
		victimNext := -1 // -1 = not chosen yet
		for id := range cached {
			pq := next[id]
			n := int(^uint(0) >> 1) // maxInt = no use in LAW
			if pq != nil && !pq.empty() {
				n = pq.front()
			}
			if victimNext == -1 || n > victimNext || (n == victimNext && id < victim) {
				victim = id
				victimNext = n
			}
		}
		bytes -= cached[victim].Size()
		delete(cached, victim)
	}

	for i, req := range seq {
		stats.Requests++
		// Slide the LAW forward: position i+LAW-1 enters.
		if i > 0 {
			enter(i + o.cfg.LAW - 1)
		}

		c, ok := cached[req.Container]
		if ok {
			stats.MemHits++
		} else {
			var err error
			c, err = cf.get(req.Container)
			if err != nil {
				return stats, err
			}
			cached[req.Container] = c
			bytes += c.Size()
			for bytes > o.cfg.MemBytes && len(cached) > 1 {
				evictOne()
			}
		}
		data, err := c.Get(req.FP)
		if err != nil {
			return stats, err
		}
		stats.LogicalBytes += int64(len(data))
		if err := emit(data); err != nil {
			return stats, err
		}
		// Position i leaves the window.
		if pq := next[req.Container]; pq != nil {
			pq.popIf(i)
			if pq.empty() {
				delete(next, req.Container)
			}
		}
	}
	return stats, nil
}
