package container

import (
	"runtime"
	"sync"
	"testing"
)

// TestGateLongestFirst: a Gated view whose tokens are all taken queues the
// requests that come next and hands each token that falls free to the
// longest of them, ties in arrival order; it never lets in more than its
// width, and an ungated view waits for nothing.
func TestGateLongestFirst(t *testing.T) {
	s := (&Store{}).Gated(2)
	s.enter(1)
	s.enter(1) // both tokens held
	lengths := []int64{3, 7, 1, 7, 5, 2}
	var (
		mu    sync.Mutex
		order []int
		wg    sync.WaitGroup
	)
	for i, n := range lengths {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.enter(n)
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}()
		// Arrival order is the test's: the next waits until this one queues.
		for waiting(s) < i+1 {
			runtime.Gosched()
		}
	}
	for range lengths {
		s.leave() // one token falls free; whoever takes it holds it
		for {
			mu.Lock()
			k := len(order)
			mu.Unlock()
			if k == len(lengths)-waiting(s) {
				break
			}
			runtime.Gosched()
		}
	}
	wg.Wait()
	want := []int{1, 3, 4, 0, 5, 2} // 7 (first), 7 (second), 5, 3, 2, 1
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tokens went to requests %v, want %v (lengths %v)", order, want, lengths)
		}
	}
	if s.gate.free != 0 {
		t.Fatalf("%d tokens free with two still held", s.gate.free)
	}
	s.leave()
	s.leave()
	if s.gate.free != 2 {
		t.Fatalf("%d tokens free after every one returned, want 2", s.gate.free)
	}
	u := &Store{}
	u.enter(1 << 20) // ungated: returns at once
	u.leave()
}

func waiting(s *Store) int {
	s.gate.mu.Lock()
	defer s.gate.mu.Unlock()
	return len(s.gate.waiting)
}
