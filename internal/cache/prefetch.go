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
// first-need order: `buffer` reads are started at construction and every
// Fetch tops the window back up, so which reads run ahead — and every
// counter in PrefetchStats — follows from the Fetch sequence alone, never
// from timing. Any consumption order is safe: a container asked for before
// the window reached it (the consumer skipped ahead) is fetched on the
// caller and never started later, so at worst the restore degrades to
// direct fetching.
//
// Fetch, Stats and Close belong to one goroutine, the one running the
// restore policy; only the wrapped Fetcher runs elsewhere.
type Prefetcher struct {
	ahead  *pipe.Ahead[container.ID, *container.Container]
	order  []container.ID        // unique containers in first-need order
	next   int                   // order[next:] has not been considered yet
	asked  map[container.ID]bool // containers Fetch has been called for
	buffer int                   // started-and-untaken reads to keep
	stats  PrefetchStats
}

// PrefetchStats reports how effective a restore's LAW prefetching was:
// how many container reads were started ahead of their demand, how many of
// those the consumer took, how many requests ran on the consumer instead
// (rereads, or the consumer skipped past the window), and how many started
// reads were never taken (work done for nothing — zero unless the restore
// aborted early). The counters are a function of the request sequence,
// the thread count and the buffer: the same restore reports the same
// numbers on any host and core count.
type PrefetchStats struct {
	Dispatched int // reads started ahead of their demand
	Consumed   int // fetches served by a started read
	Direct     int // fetches run on the caller
	Cancelled  int // started reads never taken
}

// NewPrefetcher starts prefetching the containers of seq in first-need
// order, `threads` reads at a time. buffer bounds how many
// started-but-unconsumed containers may be held (raised to threads if
// below it; it also bounds memory). threads <= 0 disables prefetching
// (Fetch degenerates to fetch).
func NewPrefetcher(fetch Fetcher, seq []Request, threads, buffer int) *Prefetcher {
	p := &Prefetcher{
		ahead:  pipe.NewAhead(threads, fetch),
		asked:  make(map[container.ID]bool),
		buffer: max(buffer, threads),
	}
	if threads <= 0 {
		return p
	}
	seen := make(map[container.ID]bool)
	for i := range seq {
		if id := seq[i].Container; !seen[id] {
			seen[id] = true
			p.order = append(p.order, id)
		}
	}
	p.topUp()
	return p
}

// topUp starts reads, in first-need order, until `buffer` are started and
// untaken. A container already asked for is skipped for good.
func (p *Prefetcher) topUp() {
	for ; p.next < len(p.order) && p.stats.Dispatched-p.stats.Consumed < p.buffer; p.next++ {
		if id := p.order[p.next]; !p.asked[id] {
			p.ahead.Start(id)
			p.stats.Dispatched++
		}
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
	p.asked[id] = true
	p.topUp()
	return c, err
}

// Stats reports the effectiveness counters so far. Cancelled is derived:
// started reads no Fetch took.
func (p *Prefetcher) Stats() PrefetchStats {
	st := p.stats
	st.Cancelled = st.Dispatched - st.Consumed
	return st
}

// Close abandons the reads that have not begun — a restore that failed on
// its first container issues no further GETs — and waits for the running
// ones to finish; safe to call multiple times.
func (p *Prefetcher) Close() {
	p.ahead.Abandon()
	p.ahead.Join()
}
