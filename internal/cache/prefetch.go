package cache

import (
	"slimstore/internal/container"
	"slimstore/internal/pipe"
)

// Prefetcher implements LAW-based prefetching (paper §V-A): containers are
// read ahead of the restore position, in the order the recipe first needs
// them, so the restore pipeline finds every container already in memory.
// With enough read channels the prefetch rate exceeds the restore rate and
// the pipeline never blocks on OSS.
//
// Wrap a policy's Fetcher with NewPrefetcher's Fetch. Virtual-time
// experiments additionally model the I/O overlap with
// simclock.Account.ElapsedOverlapped(threads).
//
// It is a demand-driven window (pipe.Ahead) over the unique containers in
// first-need order: `buffer` reads are started at construction, every one
// of them running at once, and every Fetch tops the window back up. How
// many requests are in flight is the fetcher's store's business (its gate,
// container.Store.Gated, which also picks which waiting request goes
// next); which reads run ahead — and every counter in PrefetchStats —
// follows from the Fetch sequence alone, never from timing. Any
// consumption order is safe: a container asked for before the window
// reached it (the consumer skipped ahead) is fetched on the caller and
// never started later, so at worst the restore degrades to direct
// fetching.
//
// Fetch, Begin, Follow, Stats and Close belong to one goroutine, the one
// running the restore; only the wrapped Fetcher runs elsewhere.
type Prefetcher struct {
	ahead  *pipe.Ahead[container.ID, *container.Container]
	order  []container.ID        // unique containers in first-need order
	next   int                   // order[next:] has not been considered yet
	seen   map[container.ID]bool // containers started or asked for: never started again
	buffer int                   // started-and-untaken reads to keep
	stats  PrefetchStats
}

// PrefetchStats reports how effective a restore's LAW prefetching was:
// how many container reads were started ahead of their demand, how many of
// those the consumer took, how many requests ran on the consumer instead
// (rereads, or the consumer skipped past the window), and how many started
// reads were never taken (work done for nothing — zero unless the restore
// aborted early, or began a read its sequence then did not need). The
// counters are a function of the reads begun, the request sequence and the
// buffer: the same restore reports the same numbers on any host and core
// count.
type PrefetchStats struct {
	Dispatched int // reads started ahead of their demand
	Consumed   int // fetches served by a started read
	Direct     int // fetches run on the caller
	Cancelled  int // started reads never taken
}

// NewPrefetcher starts prefetching the containers of seq in first-need
// order. buffer bounds how many started-but-unconsumed containers may be
// held, and so memory; buffer <= 0 disables prefetching (Fetch degenerates
// to fetch). seq may be nil, to Begin reads before the sequence is known
// and Follow it later.
func NewPrefetcher(fetch Fetcher, seq []Request, buffer int) *Prefetcher {
	p := &Prefetcher{
		ahead:  pipe.NewAhead(buffer, fetch),
		seen:   make(map[container.ID]bool),
		buffer: buffer,
	}
	p.Follow(seq)
	return p
}

// Begin starts reads of ids, in order, while the window has room: the
// containers a restore knows it will read before its whole sequence is
// resolved (DESIGN.md §14). They count against the window like any
// started read, and Follow takes them in where its sequence first needs
// them; one it never needs is reported Cancelled.
func (p *Prefetcher) Begin(ids []container.ID) {
	for _, id := range ids {
		if p.buffer <= 0 || p.stats.Dispatched-p.stats.Consumed >= p.buffer {
			return
		}
		p.start(id)
	}
}

// Follow appends the unique containers of seq to the first-need order and
// tops the window up.
func (p *Prefetcher) Follow(seq []Request) {
	if p.buffer <= 0 {
		return
	}
	ordered := make(map[container.ID]bool, len(p.order))
	for _, id := range p.order {
		ordered[id] = true
	}
	for i := range seq {
		if id := seq[i].Container; !ordered[id] {
			ordered[id] = true
			p.order = append(p.order, id)
		}
	}
	p.topUp()
}

// start starts id's read unless it was started or asked for before.
func (p *Prefetcher) start(id container.ID) {
	if !p.seen[id] {
		p.seen[id] = true
		p.ahead.Start(id)
		p.stats.Dispatched++
	}
}

// topUp starts reads, in first-need order, until `buffer` are started and
// untaken. A container already started or asked for is skipped for good.
func (p *Prefetcher) topUp() {
	for ; p.next < len(p.order) && p.stats.Dispatched-p.stats.Consumed < p.buffer; p.next++ {
		p.start(p.order[p.next])
	}
}

// Fetch returns the container: the started read's result when there is
// one, else a fetch on the caller (rereads, or requests that skipped past
// the window).
func (p *Prefetcher) Fetch(id container.ID) (*container.Container, error) {
	c, ahead, err := p.ahead.Take(id)
	if ahead {
		p.stats.Consumed++
	} else {
		p.stats.Direct++
	}
	p.seen[id] = true
	p.topUp()
	return c, err
}

// Settle waits until no started read is running; their results stay
// takeable.
func (p *Prefetcher) Settle() { p.ahead.Join() }

// Stats reports the effectiveness counters so far. Cancelled is derived:
// started reads no Fetch took.
func (p *Prefetcher) Stats() PrefetchStats {
	st := p.stats
	st.Cancelled = st.Dispatched - st.Consumed
	return st
}

// Close abandons the window — a read started from now on never calls the
// fetcher — and waits for the started ones to return. Every started read
// is running, so a restore that fails still issues the requests its window
// has queued at the store's gate; safe to call multiple times.
func (p *Prefetcher) Close() {
	p.ahead.Abandon()
	p.ahead.Join()
}
