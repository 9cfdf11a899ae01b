package oss

import "time"

// Latency wraps a Store, sleeping PerOp of real wall-clock time before
// every request. Unlike the Metered wrapper — which charges *virtual*
// time to a simclock account — Latency makes OSS round-trips cost actual
// elapsed time, so concurrent code observes the overlap that parallel
// request channels buy: N goroutines sleeping on timers progress together
// even on a single CPU, exactly like N in-flight HTTP requests. The
// overlap tests (G-node passes, SCC source reads, kvstore block fetch)
// count requests in flight over it.
type Latency struct {
	S     Store
	PerOp time.Duration
}

func (l *Latency) wait() {
	if l.PerOp > 0 {
		time.Sleep(l.PerOp)
	}
}

// Put implements Store.
func (l *Latency) Put(key string, data []byte) error {
	l.wait()
	return l.S.Put(key, data)
}

// Get implements Store.
func (l *Latency) Get(key string) ([]byte, error) {
	l.wait()
	return l.S.Get(key)
}

// GetRange implements Store.
func (l *Latency) GetRange(key string, off, n int64) ([]byte, error) {
	l.wait()
	return l.S.GetRange(key, off, n)
}

// Head implements Store.
func (l *Latency) Head(key string) (int64, error) {
	l.wait()
	return l.S.Head(key)
}

// Delete implements Store.
func (l *Latency) Delete(key string) error {
	l.wait()
	return l.S.Delete(key)
}

// List implements Store.
func (l *Latency) List(prefix string) ([]string, error) {
	l.wait()
	return l.S.List(prefix)
}
