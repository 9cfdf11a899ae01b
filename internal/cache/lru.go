package cache

import (
	"container/list"

	"slimstore/internal/container"
)

// LRU is a container-granularity least-recently-used cache: the classic
// restore cache whose poor behaviour under fragmentation motivates the
// paper's FV design (§V-A).
type LRU struct {
	cfg Config
}

// NewLRU returns an LRU container cache policy.
func NewLRU(cfg Config) *LRU { return &LRU{cfg: cfg.withDefaults()} }

// Name implements Restorer.
func (l *LRU) Name() string { return "lru" }

// Restore implements Restorer.
func (l *LRU) Restore(seq []Request, fetch Fetcher, emit Emit) (Stats, error) {
	var stats Stats
	cf := newCountingFetcher(fetch, &stats)

	type slot struct {
		id   container.ID
		c    *container.Container
		elem *list.Element
	}
	cached := make(map[container.ID]*slot)
	order := list.New() // front = most recent
	var bytes int64

	for _, req := range seq {
		stats.Requests++
		s, ok := cached[req.Container]
		if ok {
			stats.MemHits++
			order.MoveToFront(s.elem)
		} else {
			c, err := cf.get(req.Container)
			if err != nil {
				return stats, err
			}
			s = &slot{id: req.Container, c: c}
			s.elem = order.PushFront(s)
			cached[req.Container] = s
			bytes += c.Size()
			for bytes > l.cfg.MemBytes && order.Len() > 1 {
				back := order.Back()
				victim := back.Value.(*slot)
				order.Remove(back)
				delete(cached, victim.id)
				bytes -= victim.c.Size()
			}
		}
		data, err := s.c.Get(req.FP)
		if err != nil {
			return stats, err
		}
		stats.LogicalBytes += int64(len(data))
		if err := emit(data); err != nil {
			return stats, err
		}
	}
	return stats, nil
}
