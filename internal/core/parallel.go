package core

import (
	"sync"
	"sync/atomic"
)

// This file is the offline-maintenance worker pool (DESIGN.md §8). It
// lives in core, not gnode, because the apply half of the journal protocol
// (ApplySCC) fans out too and is shared with journal replay.

// maintWidth returns the fan-out width for maintenance work over n items
// (Config.MaintWorkers: 0 → default, negative → serial).
func (r *Repo) maintWidth(n int) int {
	w := r.Config.MaintWorkers
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

// ForEach runs fn(0..n-1) across the maintenance worker pool (FanOut at
// the Config.MaintWorkers width).
func (r *Repo) ForEach(n int, fn func(int) error) error {
	return FanOut(n, r.maintWidth(n), fn)
}

// FanOut runs fn(0..n-1) on up to width goroutines, returning the first
// error and abandoning undispatched indices once one occurs. With width
// ≤ 1 (or n ≤ 1) it is the plain serial loop on the calling goroutine.
// fn must synchronise its own writes to shared state; the helper only
// guarantees each index is dispatched at most once and that every
// in-flight fn has returned before FanOut does (so results written into
// per-index slots are safe to read without further locking).
func FanOut(n, width int, fn func(int) error) error {
	w := width
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		firstEr error
		wg      sync.WaitGroup
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstEr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// ForEachOrdered is ForEach for work whose results must be consumed in
// index order: produce(i) runs across the worker pool, consume(i) runs on
// the calling goroutine strictly in index order, each after its produce
// returned. produce runs at most the pool width ahead of consume, so what
// produce(i) leaves in a per-index slot stays resident only until
// consume(i) has taken it — the residency bound of the SCC prepare. That
// exact window and the in-order hand-over are why it does not share
// ForEach's dispatcher, whose workers pull the next index as soon as they
// are free. With one worker the same code runs produce(0), consume(0),
// produce(1), … The first error (from either side) stops dispatch; every
// in-flight produce has returned before ForEachOrdered does.
func (r *Repo) ForEachOrdered(n int, produce, consume func(int) error) error {
	w := r.maintWidth(n)
	jobs := make(chan int)
	results := make([]chan error, n)
	for i := range results {
		results[i] = make(chan error, 1) // one send per index: workers never block on the consumer
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] <- produce(i)
			}
		}()
	}
	// Dispatch from the consuming goroutine keeps the window exact: index
	// next is handed out only once next-w has been consumed, and a worker
	// is always free by then.
	var err error
	next := 0
	for i := 0; i < n && err == nil; i++ {
		for ; next < n && next < i+w; next++ {
			jobs <- next
		}
		if err = <-results[i]; err == nil {
			err = consume(i)
		}
	}
	close(jobs)
	wg.Wait()
	return err
}
