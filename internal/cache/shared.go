package cache

import (
	"container/list"
	"sync"

	"slimstore/internal/container"
)

// Shared is the node-wide restore container cache with singleflight
// fetching (DESIGN.md §10). It sits UNDER the per-job cache policies and
// ABOVE container.Store: when many concurrent jobs restore overlapping
// versions, each job's policy still decides what to keep per job, but a
// container any job fetched recently is served from node memory, and
// concurrent fetches of the same container collapse into one OSS GET.
//
// Two properties the engine relies on:
//
//   - Charging: exactly one job — the one that wins the singleflight race
//     — pays the OSS simclock charge for a fetch; hits and riders record
//     stats only. Per-job virtual-time composition is preserved: every
//     charge on a job's account comes from that job's own calls.
//   - Bound: resident bytes never exceed the budget. The cache is one
//     least-recently-used list: a fetched container enters at the front, a
//     hit moves it there, and the tail is evicted until the budget holds.
//     A container larger than the whole budget is served to its fetcher
//     and not admitted.
//
// Lock order: the internal mutex is a leaf strictly below ContainerLocks
// — jobs call into Shared while holding their restore pins, and Shared
// never acquires any other lock (the singleflight OSS fetch runs outside
// the mutex). Invalidation callbacks from container.Store likewise only
// take the leaf mutex.
type Shared struct {
	budget int64

	mu       sync.Mutex
	entries  map[container.ID]*list.Element // Value is a *sharedEntry
	lru      *list.List                     // front = most recently used
	bytes    int64                          // resident bytes
	inflight map[container.ID]*sharedFlight
	stats    SharedStats
}

// sharedEntry is one cached container.
type sharedEntry struct {
	id container.ID
	c  *container.Container
}

// sharedFlight is one in-flight singleflight fetch.
type sharedFlight struct {
	done  chan struct{}
	c     *container.Container
	err   error
	stale bool // invalidated mid-flight: publish to waiters, do not admit
}

// SharedStats is a snapshot of the node-wide cache counters.
type SharedStats struct {
	Hits          int64 // fetches served from cached entries
	Misses        int64 // fetches that went to OSS (singleflight owners)
	InflightJoins int64 // fetches that rode another job's in-flight GET
	Evictions     int64 // entries evicted for space
	Invalidations int64 // entries dropped by store invalidation
	Bytes         int64 // resident bytes
	Entries       int64 // resident containers
}

// DefaultSharedBytes is the node-wide cache budget when the config leaves
// it zero: enough for a few dozen default-size containers without
// rivaling the per-job policy budgets.
const DefaultSharedBytes = 256 << 20

// NewShared returns a shared cache with the given byte budget.
// budget <= 0 selects DefaultSharedBytes.
func NewShared(budget int64) *Shared {
	if budget <= 0 {
		budget = DefaultSharedBytes
	}
	return &Shared{
		budget:   budget,
		entries:  make(map[container.ID]*list.Element),
		lru:      list.New(),
		inflight: make(map[container.ID]*sharedFlight),
	}
}

// Stats returns a snapshot of the counters.
func (s *Shared) Stats() SharedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Bytes = s.bytes
	st.Entries = int64(len(s.entries))
	return st
}

// Invalidate drops id (container rewritten, compacted, or deleted).
// Containers already handed to jobs remain valid byte slices; only the
// cache forgets them. An in-flight fetch of id is poisoned: its waiters
// still receive the fetched value — they resolved it under their restore
// pins, so it is the version their sequence needs — but it is not
// admitted for later jobs.
func (s *Shared) Invalidate(id container.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.inflight[id]; ok {
		f.stale = true
	}
	if el, ok := s.entries[id]; ok {
		s.removeLocked(el)
		s.stats.Invalidations++
	}
}

// removeLocked drops one entry from the list and the map.
func (s *Shared) removeLocked(el *list.Element) {
	e := s.lru.Remove(el).(*sharedEntry)
	s.bytes -= e.c.Size()
	delete(s.entries, e.id)
}

// FetchSource says how a fetch was satisfied.
type FetchSource int

// Fetch outcomes.
const (
	SrcFetched FetchSource = iota // this job performed (and paid for) the OSS GET
	SrcHit                        // served from the node-wide cache
	SrcJoined                     // rode another job's in-flight GET
)

// Get returns a cached container and moves it to the front of the list,
// or returns (nil, false).
func (s *Shared) Get(id container.ID) (*container.Container, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getLocked(id)
}

func (s *Shared) getLocked(id container.ID) (*container.Container, bool) {
	el, ok := s.entries[id]
	if !ok {
		return nil, false
	}
	s.stats.Hits++
	s.lru.MoveToFront(el)
	return el.Value.(*sharedEntry).c, true
}

// Fetch returns the container for id: from the cache, by joining an
// in-flight fetch, or by running fetch (exactly one caller per container
// runs it at a time — that caller's job account carries the OSS charge).
// A successful fetch that no Invalidate overtook is admitted.
func (s *Shared) Fetch(id container.ID, fetch func() (*container.Container, error)) (*container.Container, FetchSource, error) {
	s.mu.Lock()
	for {
		if c, ok := s.getLocked(id); ok {
			s.mu.Unlock()
			return c, SrcHit, nil
		}
		f, ok := s.inflight[id]
		if !ok {
			break
		}
		s.mu.Unlock()
		<-f.done
		s.mu.Lock()
		if f.err == nil {
			s.stats.InflightJoins++
			s.mu.Unlock()
			return f.c, SrcJoined, nil
		}
		// The owner's error may be transient for us (its context, its
		// retry budget): look again, and fetch as owner if still absent.
	}
	f := &sharedFlight{done: make(chan struct{})}
	s.inflight[id] = f
	s.stats.Misses++
	s.mu.Unlock()

	c, err := fetch() // outside the mutex: this is the OSS round trip
	s.mu.Lock()
	delete(s.inflight, id)
	f.c, f.err = c, err
	if err == nil && !f.stale {
		s.admitLocked(id, c)
	}
	s.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, SrcFetched, err
	}
	return c, SrcFetched, nil
}

// admitLocked puts a fetched container at the front of the list and evicts
// from the tail until the budget holds. id is not resident: the owner of
// its flight is the only caller that admits it. A container larger than
// the budget is not admitted, so the newcomer itself is never evicted.
func (s *Shared) admitLocked(id container.ID, c *container.Container) {
	n := c.Size()
	if n > s.budget {
		return
	}
	s.entries[id] = s.lru.PushFront(&sharedEntry{id: id, c: c})
	s.bytes += n
	for s.bytes > s.budget {
		s.removeLocked(s.lru.Back())
		s.stats.Evictions++
	}
}
