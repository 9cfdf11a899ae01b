package pipe

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every test here is gated, not timed: a call that must overlap another
// waits for it, so a regression to serial shows up as a stuck gate
// (stuckAfter, reached on the failure path only) and nothing depends on
// how fast the host is or how many Ps it has.
const stuckAfter = 10 * time.Second

// goid is the running goroutine's ID, from the first line of its stack
// ("goroutine 18 [running]:").
func goid() string {
	var buf [64]byte
	s := buf[:runtime.Stack(buf[:], false)]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i >= 0 {
		s = s[:i]
	}
	return string(s)
}

// meter counts calls running at once and remembers the high-water mark.
type meter struct {
	mu        sync.Mutex
	now, high int
}

func (m *meter) enter() {
	m.mu.Lock()
	m.now++
	m.high = max(m.high, m.now)
	m.mu.Unlock()
}

func (m *meter) leave() {
	m.mu.Lock()
	m.now--
	m.mu.Unlock()
}

func (m *meter) running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// await receives n values from ch, failing the test if they do not come.
func await(t *testing.T, ch <-chan int, n int, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-ch:
		case <-time.After(stuckAfter):
			t.Fatalf("%s: only %d of %d arrived", what, i, n)
		}
	}
}

// TestAheadWidth: with ten calls started at width 3, exactly three run
// until one of them is let go, and never more than three at once.
func TestAheadWidth(t *testing.T) {
	const width, n = 3, 10
	var m meter
	entered := make(chan int, n)
	release := make(chan struct{})
	a := NewAhead(width, func(k int) (int, error) {
		m.enter()
		defer m.leave()
		entered <- k
		<-release
		return k * k, nil
	})
	for k := 0; k < n; k++ {
		a.Start(k)
	}
	await(t, entered, width, "calls entering at width 3")
	select {
	case k := <-entered:
		t.Fatalf("call %d entered beside %d running ones", k, width)
	default:
	}
	close(release)
	for k := n - 1; k >= 0; k-- { // any Take order
		v, ahead, err := a.Take(k)
		if v != k*k || !ahead || err != nil {
			t.Fatalf("Take(%d) = %d, %v, %v", k, v, ahead, err)
		}
	}
	a.Join()
	if m.high != width || m.running() != 0 {
		t.Fatalf("high-water %d (want %d), %d still running after Join", m.high, width, m.running())
	}
}

// TestAheadEntersInStartOrder: calls past the width wait their turn in
// Start order, not in whatever order their goroutines happened to run.
func TestAheadEntersInStartOrder(t *testing.T) {
	const n = 50
	var order []int // width 1: one call at a time appends
	a := NewAhead(1, func(k int) (int, error) {
		order = append(order, k)
		return k, nil
	})
	for k := 0; k < n; k++ {
		a.Start(k)
	}
	a.Join()
	for i, k := range order {
		if k != i {
			t.Fatalf("calls entered in order %v", order)
		}
	}
	if len(order) != n {
		t.Fatalf("%d of %d calls ran", len(order), n)
	}
}

// TestAheadTakeUnstarted: a key nobody started runs on the caller, at Take,
// and says so; a started one runs elsewhere.
func TestAheadTakeUnstarted(t *testing.T) {
	ran := map[int]string{}
	var mu sync.Mutex
	a := NewAhead(2, func(k int) (string, error) {
		mu.Lock()
		ran[k] = goid()
		mu.Unlock()
		return "v", nil
	})
	defer a.Join()
	a.Start(1)
	if _, ahead, err := a.Take(1); !ahead || err != nil {
		t.Fatalf("Take(1) of a started key: ahead=%v err=%v", ahead, err)
	}
	if _, ahead, err := a.Take(2); ahead || err != nil {
		t.Fatalf("Take(2) of an unstarted key: ahead=%v err=%v", ahead, err)
	}
	// Taken means unstarted again: the next Take runs it afresh, here.
	if _, ahead, _ := a.Take(1); ahead {
		t.Fatal("second Take(1) claims a started call")
	}
	if me := goid(); ran[2] != me || ran[1] != me {
		t.Fatalf("unstarted keys ran on goroutines %s and %s, caller is %s", ran[2], ran[1], me)
	}
}

// TestAheadErrorBelongsToItsKey: a failed call's error comes out of that
// key's Take and of no other.
func TestAheadErrorBelongsToItsKey(t *testing.T) {
	boom := errors.New("boom")
	a := NewAhead(4, func(k int) (int, error) {
		if k == 2 {
			return 0, boom
		}
		return k, nil
	})
	defer a.Join()
	for k := 0; k < 5; k++ {
		a.Start(k)
	}
	for k := 0; k < 5; k++ {
		v, ahead, err := a.Take(k)
		if !ahead {
			t.Fatalf("Take(%d) did not find its started call", k)
		}
		if k == 2 {
			if !errors.Is(err, boom) {
				t.Fatalf("Take(2) = %v, want the call's error", err)
			}
		} else if err != nil || v != k {
			t.Fatalf("Take(%d) = %d, %v", k, v, err)
		}
	}
}

// TestAheadForgetAndRestart: a forgotten call keeps running and Join waits
// for it; its key starts a fresh call meanwhile; Start of a started key
// calls nothing.
func TestAheadForgetAndRestart(t *testing.T) {
	var m meter
	var calls atomic.Int64
	entered := make(chan int, 4)
	release := make(chan struct{})
	a := NewAhead(4, func(k int) (int64, error) {
		m.enter()
		defer m.leave()
		n := calls.Add(1)
		entered <- k
		<-release
		return n, nil
	})
	a.Start(7)
	a.Start(7) // no-op
	a.Start(8)
	await(t, entered, 2, "the two started calls")
	a.Forget(func(k int) bool { return k != 7 })
	a.Start(7) // forgotten, so this is a second call of fn(7)
	a.Start(8) // still started: no-op
	await(t, entered, 1, "the restarted call")
	if got := calls.Load(); got != 3 {
		t.Fatalf("fn called %d times, want 3 (7, 8, 7 again)", got)
	}
	joined := make(chan struct{})
	go func() { a.Join(); close(joined) }()
	select {
	case <-joined:
		t.Fatal("Join returned with the forgotten call still running")
	default:
	}
	close(release)
	select {
	case <-joined:
	case <-time.After(stuckAfter):
		t.Fatal("Join never returned")
	}
	if m.running() != 0 {
		t.Fatalf("%d calls running after Join", m.running())
	}
	if v, ahead, _ := a.Take(7); !ahead || v != 3 {
		t.Fatalf("Take(7) = call %d (ahead=%v), want the restarted call, 3", v, ahead)
	}
	if _, ahead, _ := a.Take(8); !ahead {
		t.Fatal("Take(8) lost its call")
	}
}

// TestAheadAbandon: once a window is abandoned the calls that are running
// finish, fn runs for none of those still queued behind the width nor for
// any started later, and ErrAbandoned — not a zero value — is what taking
// such a key returns.
func TestAheadAbandon(t *testing.T) {
	const width, n = 2, 10
	var m meter
	var calls atomic.Int64
	entered := make(chan int, n)
	release := make(chan struct{})
	a := NewAhead(width, func(k int) (int, error) {
		m.enter()
		defer m.leave()
		calls.Add(1)
		entered <- k
		<-release
		return k, nil
	})
	for k := 0; k < n; k++ {
		a.Start(k)
	}
	await(t, entered, width, "the calls the width admits")
	a.Abandon()
	a.Start(n)
	close(release)
	a.Join()
	if got := calls.Load(); got != width || m.running() != 0 {
		t.Fatalf("fn ran %d times with %d still running after Join, want the %d that had entered and none", got, m.running(), width)
	}
	for k := 0; k <= n; k++ {
		v, ahead, err := a.Take(k)
		if k < width && (v != k || err != nil) || k >= width && !errors.Is(err, ErrAbandoned) || !ahead {
			t.Fatalf("Take(%d) of an abandoned window = %d, %v, %v", k, v, ahead, err)
		}
	}
}

// TestFanOutDispatchesEachIndexOnce: every index runs exactly once, at most
// width at a time, and width of them really do overlap.
func TestFanOutDispatchesEachIndexOnce(t *testing.T) {
	const n, width = 200, 4
	var m meter
	var barrier sync.WaitGroup
	barrier.Add(width)
	hits := make([]atomic.Int64, n)
	var first atomic.Int64
	err := FanOut(n, width, func(i int) error {
		m.enter()
		defer m.leave()
		hits[i].Add(1)
		if first.Add(1) <= width { // the first call of each worker waits for the others'
			barrier.Done()
			barrier.Wait()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d ran %d times", i, hits[i].Load())
		}
	}
	if m.high != width || m.running() != 0 {
		t.Fatalf("high-water %d (want %d), %d running on return", m.high, width, m.running())
	}
}

// TestFanOutStopsAtFirstError: the error comes back, nothing is in flight
// on return, and the indices past the failure are abandoned — with 2³⁰ of
// them, a dispatcher that carried on would run them all before returning.
func TestFanOutStopsAtFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		const n = 1 << 30
		var m meter
		var calls atomic.Int64
		err := FanOut(n, width, func(i int) error {
			m.enter()
			defer m.leave()
			calls.Add(1)
			if i == 2 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("width %d: err = %v", width, err)
		}
		if calls.Load() == n || m.running() != 0 {
			t.Fatalf("width %d: %d calls made, %d running on return", width, calls.Load(), m.running())
		}
		if width == 1 && calls.Load() != 3 {
			t.Fatalf("serial FanOut made %d calls before stopping at index 2", calls.Load())
		}
	}
}

// TestForEachOrderedWindow: the first width produces run together (each
// waits for the others), produce(i) never starts before consume(i-width)
// has returned, and consume sees 0, 1, 2, … each after its produce.
func TestForEachOrderedWindow(t *testing.T) {
	const n, width = 40, 3
	var barrier sync.WaitGroup
	barrier.Add(width)
	var consumed atomic.Int64
	produced := make([]atomic.Bool, n)
	next := 0
	err := ForEachOrdered(n, width, func(i int) error {
		if ahead := int64(i) - consumed.Load(); ahead >= width {
			t.Errorf("produce(%d) started %d ahead of consume, width %d", i, ahead, width)
		}
		if i < width {
			barrier.Done()
			barrier.Wait()
		}
		produced[i].Store(true)
		return nil
	}, func(i int) error {
		if i != next || !produced[i].Load() {
			t.Errorf("consume(%d): want index %d, produced=%v", i, next, produced[i].Load())
		}
		next++
		consumed.Add(1)
		return nil
	})
	if err != nil || next != n {
		t.Fatalf("err=%v, consumed %d of %d", err, next, n)
	}
}

// TestForEachOrderedErrorsLeaveNothingRunning: an error from produce or
// from consume stops the walk at that index and comes back only once the
// produces already started have returned.
func TestForEachOrderedErrorsLeaveNothingRunning(t *testing.T) {
	boom := errors.New("boom")
	for _, width := range []int{1, 4} {
		for _, side := range []string{"produce", "consume"} {
			var m meter
			consumed := 0
			err := ForEachOrdered(30, width, func(i int) error {
				m.enter()
				defer m.leave()
				if side == "produce" && i == 9 {
					return boom
				}
				return nil
			}, func(i int) error {
				if side == "consume" && i == 9 {
					return boom
				}
				consumed++
				return nil
			})
			if !errors.Is(err, boom) || consumed != 9 || m.running() != 0 {
				t.Fatalf("width %d, %s error: err=%v consumed=%d running=%d", width, side, err, consumed, m.running())
			}
		}
	}
}

// TestSerialWidthStaysOnCaller: at width ≤ 1 neither loop starts a
// goroutine — callers rely on it to run under locks and in tests that
// count requests in order.
func TestSerialWidthStaysOnCaller(t *testing.T) {
	me := goid()
	here := func(i int) error {
		if g := goid(); g != me {
			t.Errorf("index %d ran on goroutine %s, caller is %s", i, g, me)
		}
		return nil
	}
	for _, width := range []int{-1, 0, 1} {
		if err := ForEachOrdered(5, width, here, here); err != nil {
			t.Fatal(err)
		}
		if err := FanOut(5, width, here); err != nil {
			t.Fatal(err)
		}
	}
	// One index is the same plain loop whatever the width.
	if err := ForEachOrdered(1, 8, here, here); err != nil {
		t.Fatal(err)
	}
	if err := FanOut(1, 8, here); err != nil {
		t.Fatal(err)
	}
}
