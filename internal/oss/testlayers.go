package oss

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"sync"
	"time"
)

// The layers in this file are test support that lives beside Frozen
// because the suites of a dozen packages share them; nothing the product
// runs constructs one. Each sees every request of every kind, because a
// layer cannot do otherwise.

// LayerFunc adapts a function to a Layer, for a test's one-off behaviour.
type LayerFunc func(op Op, next Store) (Op, error)

// Do implements Layer.
func (f LayerFunc) Do(op Op, next Store) (Op, error) { return f(op, next) }

// Sleep spends d of wall-clock time before every request, so requests
// issued together overlap observably even on one CPU, as N HTTP requests
// in flight do.
func Sleep(d time.Duration) Layer {
	return LayerFunc(func(op Op, next Store) (Op, error) {
		time.Sleep(d)
		return Do(next, op)
	})
}

// Request is one request a Recorder saw.
type Request struct {
	Op           // as issued, with what came back; a put's Data is dropped
	Bytes int64  // length of the put's payload, or of the data returned
	Sum   uint32 // CRC32C of a put's payload
	Err   error
	// Begin and End are the recorder's event clock — one tick per arrival
	// and per return — at the request's own; End is 0 while in flight.
	Begin, End int
}

// Recorder logs every request passing through it, in arrival order.
type Recorder struct {
	mu    sync.Mutex
	clock int
	taken int // bumped by Take: returns of requests logged before it are dropped
	log   []Request
}

// Do implements Layer.
func (r *Recorder) Do(op Op, next Store) (Op, error) {
	req := Request{Op: op}
	if op.Kind == KindPut {
		req.Data, req.Bytes, req.Sum = nil, int64(len(op.Data)), crc32.Checksum(op.Data, frozenTable)
	}
	r.mu.Lock()
	r.clock++
	req.Begin = r.clock
	i, taken := len(r.log), r.taken
	r.log = append(r.log, req)
	r.mu.Unlock()

	res, err := Do(next, op)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.clock++; taken == r.taken {
		q := &r.log[i]
		q.End, q.Err = r.clock, err
		if op.Kind != KindPut {
			q.Data, q.Size, q.Keys, q.Bytes = res.Data, res.Size, res.Keys, int64(len(res.Data))
		}
	}
	return res, err
}

// Requests returns the logged requests match selects (all of them when
// match is nil), in arrival order.
func (r *Recorder) Requests(match func(Op) bool) []Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Request
	for _, q := range r.log {
		if match == nil || match(q.Op) {
			out = append(out, q)
		}
	}
	return out
}

// Take returns everything logged so far and forgets it, requests still in
// flight included.
func (r *Recorder) Take() []Request {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.log
	r.log, r.taken = nil, r.taken+1
	return out
}

// InFlight reports how many of the requests match selects (nil: all) have
// not returned, and the most of them that were in flight at once.
func (r *Recorder) InFlight(match func(Op) bool) (now, peak int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delta := make([]int, r.clock+1) // per tick: +1 an arrival, -1 a return
	for _, q := range r.log {
		if match == nil || match(q.Op) {
			delta[q.Begin]++
			delta[q.End]-- // tick 0, which the sweep skips, while in flight
		}
	}
	for _, d := range delta[1:] {
		now += d
		peak = max(peak, now)
	}
	return now, peak
}

// Barrier holds the requests it was told to Expect until a whole wave of
// them waits together — the proof, without reading a clock, that they were
// issued side by side: issued one at a time, the first would wait alone.
// Only the timeout turns that hang into an error.
type Barrier struct {
	Timeout time.Duration // how long a request waits for its wave; 0 means 10 s. Set before use.

	mu      sync.Mutex
	match   func(Op) bool
	waves   []int // sizes of the waves still to form
	waiting int
	release chan struct{}
	failed  []string
}

// Expect arms the barrier: the next sizes[0] requests match selects are
// released only once they all wait together, then the next sizes[1], and
// so on; after the last wave nothing is held. Waves still armed from an
// earlier Expect are let go and reported by Err. match, like a Recorder's,
// runs under the layer's lock: a pure predicate of the op.
func (b *Barrier) Expect(match func(Op) bool, sizes ...int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.disarm()
	b.match, b.waves, b.release = match, sizes, make(chan struct{})
}

// disarm lets whatever waits go and holds nothing more, noting the waves
// that had not formed. Caller holds b.mu.
func (b *Barrier) disarm() {
	if len(b.waves) > 0 {
		b.failed = append(b.failed, fmt.Sprintf("%d of a wave of %d arrived, %d waves never formed", b.waiting, b.waves[0], len(b.waves)))
	}
	if b.release != nil {
		close(b.release)
	}
	b.waves, b.waiting, b.release = nil, 0, nil
}

// Err disarms the barrier and reports the requests that waited alone and
// the armed waves that never formed.
func (b *Barrier) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.disarm()
	if len(b.failed) == 0 {
		return nil
	}
	return fmt.Errorf("oss: barrier: %s", strings.Join(b.failed, "; "))
}

// Do implements Layer.
func (b *Barrier) Do(op Op, next Store) (Op, error) {
	b.mu.Lock()
	var wait chan struct{}
	if len(b.waves) > 0 && b.match(op) {
		if b.waiting++; b.waiting < b.waves[0] {
			wait = b.release
		} else {
			close(b.release)
			b.waves, b.waiting, b.release = b.waves[1:], 0, make(chan struct{})
		}
	}
	b.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-time.After(cmp.Or(b.Timeout, 10*time.Second)):
			if err := b.alone(op, wait); err != nil {
				return op, err
			}
		}
	}
	return Do(next, op)
}

// alone records that op's wave did not form in time — unless it just has —
// and disarms the barrier, so the rest of a serial chain does not wait out
// the timeout too.
func (b *Barrier) alone(op Op, wait chan struct{}) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	select {
	case <-wait:
		return nil
	default:
	}
	err := fmt.Errorf("%s waited alone: the requests of its wave were not issued together", op)
	b.failed = append(b.failed, err.Error())
	b.disarm()
	return err
}

// Crash is the layer CrashAfter returns.
type Crash struct {
	mu            sync.Mutex
	budget, spent int
	cut           bool // a mutation was refused
}

// CrashAfter models the process dying at a chosen point: the first n
// mutations — puts and deletes alike — land and every later one is refused
// with ErrInjected, including those of workers still running when the
// first refusal comes back, so nothing reaches the store after the crash.
// n < 0 never crashes and only counts.
func CrashAfter(n int) *Crash { return &Crash{budget: n} }

// Do implements Layer.
func (c *Crash) Do(op Op, next Store) (Op, error) {
	if op.Kind == KindPut || op.Kind == KindDelete {
		c.mu.Lock()
		if c.budget == 0 {
			c.cut = true
			c.mu.Unlock()
			return op, fmt.Errorf("%w: crashed before %s", ErrInjected, op)
		}
		c.budget--
		c.spent++
		c.mu.Unlock()
	}
	return Do(next, op)
}

// Spent is the number of mutations let through so far.
func (c *Crash) Spent() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent
}

// TB is the part of testing.TB that CrashAtEvery uses.
type TB interface {
	Helper()
	Logf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// CrashAtEvery is the crash-at-every-mutation loop. For n = 0, stride,
// 2·stride, … below limit it runs op over a Clone of baseline behind
// CrashAfter(n), then hands check the clone — what reached the store —
// with n and op's error. A run the crash cut must fail with ErrInjected.
// The first run that completes, or that check returns true for, ends the
// loop; t fails if none does. Every clone shares baseline's bytes, so t
// also fails if a run wrote through a Get view into them.
func CrashAtEvery(t TB, baseline *Mem, stride, limit int, op func(Store) error, check func(mem *Mem, n int, err error) bool) {
	t.Helper()
	sum := baseline.crc()
	for n := 0; n < limit; n += stride {
		mem, crash := baseline.Clone(), CrashAfter(n)
		err := op(With(mem, crash))
		crash.mu.Lock()
		cut := crash.cut
		crash.mu.Unlock()
		if (cut || err != nil) && !errors.Is(err, ErrInjected) {
			t.Fatalf("budget %d: %v, want the injected crash", n, err)
		}
		if check(mem, n, err) || err == nil {
			if baseline.crc() != sum {
				t.Fatalf("a run wrote through a Get view into the baseline's bytes")
			}
			t.Logf("%d runs, budgets 0 to %d", n/stride+1, n)
			return
		}
	}
	t.Fatalf("the operation never completed within %d mutations", limit)
}

// crc adds up the CRC32C of every key of s followed by its bytes.
func (s *Mem) crc() (sum uint32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k, v := range s.m {
		sum += crc32.Update(crc32.Checksum([]byte(k), frozenTable), frozenTable, v)
	}
	return sum
}

// SameBytes is a writer for a stream that must reproduce known bytes: it
// holds what has still to come and refuses a write that does not begin
// it, so a restore is compared as it arrives instead of being buffered.
// A stream that matched in full leaves it empty.
type SameBytes []byte

// Write implements io.Writer.
func (w *SameBytes) Write(p []byte) (int, error) {
	if !bytes.HasPrefix(*w, p) {
		return 0, errors.New("restored bytes differ from the original")
	}
	*w = (*w)[len(p):]
	return len(p), nil
}
