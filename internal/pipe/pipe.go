// Package pipe holds the bounded fan-out loops the storage layers share:
// one unordered (FanOut), one with an in-order hand-over (ForEachOrdered).
// It is a leaf package so that globalindex and kvstore, which core
// imports, can use the same loops as core's callers.
package pipe

import (
	"sync"
	"sync/atomic"
)

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

// ForEachOrdered is FanOut for work whose results must be consumed in
// index order: produce(i) runs on up to width goroutines, consume(i) runs
// on the calling goroutine strictly in index order, each after its produce
// returned. produce runs at most width ahead of consume, so what
// produce(i) leaves in a per-index slot stays resident only until
// consume(i) has taken it — the residency bound of the SCC prepare. That
// exact window and the in-order hand-over are why it does not share
// FanOut's dispatcher, whose workers pull the next index as soon as they
// are free. With width ≤ 1 the same code runs produce(0), consume(0),
// produce(1), … The first error (from either side) stops dispatch; every
// in-flight produce has returned before ForEachOrdered does.
func ForEachOrdered(n, width int, produce, consume func(int) error) error {
	w := width
	if w < 1 {
		w = 1
	}
	if w > n {
		w = n
	}
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
