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
// Three properties the engine relies on:
//
//   - Charging: exactly one job — the one that wins the singleflight race
//     — pays the OSS simclock charge for a fetch; hits and riders record
//     stats only. Per-job virtual-time composition is preserved: every
//     charge on a job's account comes from that job's own calls.
//   - Admission: the cache is segmented into a probation segment (new
//     entries, at most a quarter of the budget) and a protected segment
//     (entries hit again after admission). A cold sweep by one job churns
//     probation only; it cannot evict another job's re-used working set.
//   - Reference counting: each restore job holds a session; the entries
//     the session touched most recently (a sliding window) carry a
//     reference and are never evicted while referenced — the containers a
//     job is actively assembling chunks from cannot be churned out by
//     other jobs. References decay as the session touches further
//     containers and are all dropped at Close. Eviction only reclaims
//     unreferenced entries; when referenced entries hold all the space,
//     admission is refused rather than the budget exceeded.
//
// Lock order: the internal mutex is a leaf strictly below ContainerLocks
// — jobs call into Shared while holding their restore pins, and Shared
// never acquires any other lock (the singleflight OSS fetch runs outside
// the mutex). Invalidation callbacks from container.Store likewise only
// take the leaf mutex.
type Shared struct {
	budget  int64 // total byte budget across both segments
	probCap int64 // probation segment budget (budget / 4)

	mu        sync.Mutex
	entries   map[container.ID]*sharedEntry
	probation *list.List // front = most recent; new entries land here
	protected *list.List // front = most recent; entries hit again
	probBytes int64
	protBytes int64
	inflight  map[container.ID]*sharedFlight
	stats     SharedStats
}

// sharedEntry is one cached container.
type sharedEntry struct {
	id    container.ID
	c     *container.Container
	bytes int64
	refs  int // sessions currently holding this entry
	prot  bool
	elem  *list.Element
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
	Admits        int64 // containers admitted to the cache
	Evictions     int64 // entries evicted for space
	Rejects       int64 // admissions refused (referenced entries hold the space)
	Invalidations int64 // entries dropped by store invalidation
	Bytes         int64 // resident bytes, both segments
	Entries       int64 // resident containers
}

// DefaultSharedBytes is the node-wide cache budget when the config leaves
// it zero: enough for a few dozen default-size containers without
// rivaling the per-job policy budgets.
const DefaultSharedBytes = 256 << 20

// minSharedBytes keeps degenerate budgets functional in tests.
const minSharedBytes = 64 << 10

// NewShared returns a shared cache with the given byte budget.
// budget <= 0 selects DefaultSharedBytes.
func NewShared(budget int64) *Shared {
	if budget <= 0 {
		budget = DefaultSharedBytes
	}
	if budget < minSharedBytes {
		budget = minSharedBytes
	}
	return &Shared{
		budget:    budget,
		probCap:   budget / 4,
		entries:   make(map[container.ID]*sharedEntry),
		probation: list.New(),
		protected: list.New(),
		inflight:  make(map[container.ID]*sharedFlight),
	}
}

// Stats returns a snapshot of the counters.
func (s *Shared) Stats() SharedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Bytes = s.probBytes + s.protBytes
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
	e, ok := s.entries[id]
	if !ok {
		return
	}
	s.removeLocked(e)
	s.stats.Invalidations++
}

// removeLocked detaches an entry from its segment and the map.
func (s *Shared) removeLocked(e *sharedEntry) {
	if e.prot {
		s.protected.Remove(e.elem)
		s.protBytes -= e.bytes
	} else {
		s.probation.Remove(e.elem)
		s.probBytes -= e.bytes
	}
	delete(s.entries, e.id)
}

// FetchSource says how a session fetch was satisfied.
type FetchSource int

// Fetch outcomes.
const (
	SrcFetched FetchSource = iota // this job performed (and paid for) the OSS GET
	SrcHit                        // served from the node-wide cache
	SrcJoined                     // rode another job's in-flight GET
)

// sessionRefWindow is how many recently touched entries a session keeps
// referenced. It covers the containers a job's assembly pipeline (and its
// prefetch workers) are actively drawing chunks from; older references
// decay so one long job cannot pin its entire footprint and starve
// admission for everyone else.
const sessionRefWindow = 8

// SharedSession is one job's handle on the shared cache. It holds
// references on the entries the job touched most recently; all session
// state is guarded by the shared cache's own mutex, so one session may be
// used from many goroutines (the LAW prefetch workers).
type SharedSession struct {
	s    *Shared
	ring []*sharedEntry // last touches, each holding one reference; nil = touch with no entry
	pos  int
}

// NewSession opens a session. Callers must Close it when the job ends.
func (s *Shared) NewSession() *SharedSession {
	return &SharedSession{s: s}
}

// Close releases every reference the session holds. Safe to call twice.
func (ss *SharedSession) Close() {
	ss.s.mu.Lock()
	defer ss.s.mu.Unlock()
	for _, e := range ss.ring {
		if e != nil {
			e.refs--
		}
	}
	ss.ring, ss.pos = nil, 0
}

// touchLocked records one fetch-path touch, referencing e (may be nil for
// a touch that yielded no cache entry — the decay still advances, so
// rejected admissions eventually release the references blocking them).
// Decrementing a removed entry's count is harmless: eviction only ever
// inspects entries still resident in the segments.
func (ss *SharedSession) touchLocked(e *sharedEntry) {
	if e != nil {
		e.refs++
	}
	if len(ss.ring) < sessionRefWindow {
		ss.ring = append(ss.ring, e)
		return
	}
	old := ss.ring[ss.pos]
	ss.ring[ss.pos] = e
	ss.pos = (ss.pos + 1) % sessionRefWindow
	if old != nil {
		old.refs--
	}
}

// Get returns a cached container, or (nil, false). A hit promotes the
// entry to the protected segment and references it for this session.
func (ss *SharedSession) Get(id container.ID) (*container.Container, bool) {
	s := ss.s
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if !ok {
		return nil, false
	}
	s.stats.Hits++
	s.promoteLocked(e)
	ss.touchLocked(e)
	return e.c, true
}

// Fetch returns the container for id: from the cache, by joining an
// in-flight fetch from any session, or by running fetch (exactly one
// caller per container runs it at a time — that caller's job account
// carries the OSS charge). A successful owned fetch is admitted to the
// probation segment when unreferenced space allows.
func (ss *SharedSession) Fetch(id container.ID, fetch func() (*container.Container, error)) (*container.Container, FetchSource, error) {
	s := ss.s
	for {
		s.mu.Lock()
		if e, ok := s.entries[id]; ok {
			s.stats.Hits++
			s.promoteLocked(e)
			ss.touchLocked(e)
			s.mu.Unlock()
			return e.c, SrcHit, nil
		}
		if f, ok := s.inflight[id]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				// The owner's error may be transient for us (its context,
				// its retry budget); retry the loop as a fresh owner.
				return ss.ownFetch(id, fetch)
			}
			s.mu.Lock()
			s.stats.InflightJoins++
			if e, ok := s.entries[id]; ok && e.c == f.c {
				ss.touchLocked(e)
			} else {
				ss.touchLocked(nil)
			}
			s.mu.Unlock()
			return f.c, SrcJoined, nil
		}
		s.mu.Unlock()
		return ss.ownFetch(id, fetch)
	}
}

// ownFetch performs the singleflight-owned fetch for id. Registration can
// lose a race with another would-be owner, in which case it joins.
func (ss *SharedSession) ownFetch(id container.ID, fetch func() (*container.Container, error)) (*container.Container, FetchSource, error) {
	s := ss.s
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		s.stats.Hits++
		s.promoteLocked(e)
		ss.touchLocked(e)
		s.mu.Unlock()
		return e.c, SrcHit, nil
	}
	if f, ok := s.inflight[id]; ok {
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return ss.ownFetch(id, fetch)
		}
		s.mu.Lock()
		s.stats.InflightJoins++
		if e, ok := s.entries[id]; ok && e.c == f.c {
			ss.touchLocked(e)
		} else {
			ss.touchLocked(nil)
		}
		s.mu.Unlock()
		return f.c, SrcJoined, nil
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
		// Reference (or, on a refused admission, just advance the decay
		// window) regardless of the admission outcome.
		ss.touchLocked(s.admitLocked(id, c))
	}
	s.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, SrcFetched, err
	}
	return c, SrcFetched, nil
}

// promoteLocked moves a hit entry to the protected segment's front,
// demoting protected LRU entries to probation as needed to respect the
// protected budget.
func (s *Shared) promoteLocked(e *sharedEntry) {
	if e.prot {
		s.protected.MoveToFront(e.elem)
		return
	}
	s.probation.Remove(e.elem)
	s.probBytes -= e.bytes
	e.prot = true
	e.elem = s.protected.PushFront(e)
	s.protBytes += e.bytes

	protCap := s.budget - s.probCap
	for s.protBytes > protCap && s.protected.Len() > 1 {
		back := s.protected.Back()
		victim := back.Value.(*sharedEntry)
		if victim == e {
			break
		}
		s.protected.Remove(back)
		s.protBytes -= victim.bytes
		victim.prot = false
		victim.elem = s.probation.PushFront(victim)
		s.probBytes += victim.bytes
	}
	s.evictProbationLocked()
}

// admitLocked inserts a fetched container into probation, evicting
// unreferenced probation tail entries to make room. Returns nil (and
// counts a reject) when referenced entries hold all the space or the
// container alone exceeds the probation budget.
func (s *Shared) admitLocked(id container.ID, c *container.Container) *sharedEntry {
	bytes := c.Size()
	if bytes > s.probCap {
		s.stats.Rejects++
		return nil
	}
	if e, ok := s.entries[id]; ok {
		// Another path admitted it while we fetched; keep the resident one.
		return e
	}
	e := &sharedEntry{id: id, c: c, bytes: bytes}
	e.elem = s.probation.PushFront(e)
	s.probBytes += bytes
	s.entries[id] = e
	e.refs++ // shield the newcomer from its own eviction pass
	fits := s.evictProbationLocked()
	e.refs--
	if !fits {
		// Could not get back under budget (everything else is referenced):
		// un-admit the newcomer rather than exceed the bound.
		s.removeLocked(e)
		s.stats.Rejects++
		return nil
	}
	s.stats.Admits++
	return e
}

// evictProbationLocked evicts unreferenced probation entries, oldest
// first, until the probation segment fits its budget. Reports whether the
// budget is respected afterwards.
func (s *Shared) evictProbationLocked() bool {
	for elem := s.probation.Back(); elem != nil && s.probBytes > s.probCap; {
		e := elem.Value.(*sharedEntry)
		prev := elem.Prev()
		if e.refs == 0 {
			s.removeLocked(e)
			s.stats.Evictions++
		}
		elem = prev
	}
	return s.probBytes <= s.probCap
}
