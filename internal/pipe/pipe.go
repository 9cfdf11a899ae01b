// Package pipe holds the bounded concurrency the storage layers share,
// three entry points over two mechanisms: FanOut, whose workers pull
// indices (unordered, every index wanted), and Ahead, a demand-driven
// read-ahead window whose caller decides which calls run early — the LAW
// prefetcher, the segment read-ahead and ForEachOrdered are all Ahead. It
// is a leaf package so that globalindex and kvstore, which core imports,
// can use the same loops as core's callers.
package pipe

import (
	"errors"
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

// ErrAbandoned is the result of a started call that had not entered when
// its window was abandoned.
var ErrAbandoned = errors.New("pipe: call abandoned before it ran")

// Ahead runs calls of fn ahead of the demand for their results: Start(k)
// begins fn(k) on its own goroutine, at most width of them running at
// once and entering in Start order, and Take(k) hands the result over,
// waiting if need be. The table of started calls is touched only by the
// one goroutine that calls Start, Take, Forget and Join — nothing but fn
// runs anywhere else — so which calls run ahead, and in what order, is a
// function of that goroutine's call sequence and never of timing.
type Ahead[K comparable, V any] struct {
	fn        func(K) (V, error)
	sem       chan struct{} // width tokens: the calls running at once
	calls     map[K]*aheadCall[V]
	last      chan struct{}  // closed once the latest started call holds its token
	wg        sync.WaitGroup // every call started, forgotten ones included
	abandoned atomic.Bool    // a call entering from now on skips fn (Abandon)
}

type aheadCall[V any] struct {
	done chan struct{} // closed once v and err are set
	v    V
	err  error
}

// NewAhead returns a window over fn running at most width (≥ 1) calls at
// once. The caller must Join it.
func NewAhead[K comparable, V any](width int, fn func(K) (V, error)) *Ahead[K, V] {
	if width < 1 {
		width = 1
	}
	return &Ahead[K, V]{fn: fn, sem: make(chan struct{}, width), calls: make(map[K]*aheadCall[V])}
}

// Start begins fn(k) in the background; a no-op while k is started and
// untaken. It never blocks: a call past the width waits for its turn on
// its own goroutine.
func (a *Ahead[K, V]) Start(k K) {
	if a.calls[k] != nil {
		return
	}
	c := &aheadCall[V]{done: make(chan struct{})}
	a.calls[k] = c
	before, entered := a.last, make(chan struct{})
	a.last = entered
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		// Queue behind the call started before this one: the caller takes
		// in Start order more often than not, so the head of the queue is
		// the result it will wait for first.
		if before != nil {
			<-before
		}
		a.sem <- struct{}{}
		close(entered)
		if a.abandoned.Load() {
			c.err = ErrAbandoned
		} else {
			c.v, c.err = a.fn(k)
		}
		<-a.sem
		close(c.done)
	}()
}

// Take returns fn(k): the started call's result (ahead true), waiting for
// it if it has not finished, else fn(k) run here on the caller. Either way
// k is unstarted afterwards.
func (a *Ahead[K, V]) Take(k K) (v V, ahead bool, err error) {
	c := a.calls[k]
	if c == nil {
		v, err = a.fn(k)
		return v, false, err
	}
	delete(a.calls, k)
	<-c.done
	return c.v, true, c.err
}

// Forget drops the started calls whose key keep rejects: their results
// (and errors) are discarded and their keys can be started again. The
// calls themselves still run to completion; Join waits for them.
func (a *Ahead[K, V]) Forget(keep func(K) bool) {
	for k := range a.calls {
		if !keep(k) {
			delete(a.calls, k)
		}
	}
}

// Join waits until no call is running, taken or not. Untaken results stay
// takeable.
func (a *Ahead[K, V]) Join() { a.wg.Wait() }

// Abandon is for a caller that has stopped taking results — an aborted
// restore, a failed walk: from now on a started call that has not entered
// yet returns ErrAbandoned without running fn, so the work queued behind the
// width is not done for nothing. The calls already running finish; Join
// still waits for them.
func (a *Ahead[K, V]) Abandon() { a.abandoned.Store(true) }

// ForEachOrdered is FanOut for work whose results must be consumed in
// index order: produce(i) runs on up to width goroutines, consume(i) runs
// on the calling goroutine strictly in index order, each after its produce
// returned. produce runs at most width ahead of consume, so what
// produce(i) leaves in a per-index slot stays resident only until
// consume(i) has taken it — the residency bound of the SCC prepare. The
// window is exact because it is the consuming goroutine that starts index
// i+width-1, and only once it is about to take i. With width ≤ 1 it is
// the plain loop produce(0), consume(0), produce(1), … on the calling
// goroutine. The first error (from either side) stops the walk; every
// in-flight produce has returned before ForEachOrdered does.
func ForEachOrdered(n, width int, produce, consume func(int) error) error {
	w := width
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := produce(i); err != nil {
				return err
			}
			if err := consume(i); err != nil {
				return err
			}
		}
		return nil
	}
	a := NewAhead(w, func(i int) (struct{}, error) { return struct{}{}, produce(i) })
	defer a.Join()
	next := 0
	for i := 0; i < n; i++ {
		for ; next < n && next < i+w; next++ {
			a.Start(next)
		}
		if _, _, err := a.Take(i); err != nil {
			return err
		}
		if err := consume(i); err != nil {
			return err
		}
	}
	return nil
}
