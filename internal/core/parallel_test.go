package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestForEachOrdered: consume sees every index once, in order, after its
// produce; produce never runs more than the pool width ahead of consume;
// the serial width interleaves strictly.
func TestForEachOrdered(t *testing.T) {
	for _, workers := range []int{-1, 1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := &Repo{Config: Config{MaintWorkers: workers}}
			const n = 50
			width := workers
			if width < 1 {
				width = 1
			}
			var consumed atomic.Int64
			produced := make([]atomic.Bool, n)
			var order []int
			err := r.ForEachOrdered(n, func(i int) error {
				if ahead := int64(i) - consumed.Load(); ahead >= int64(width) {
					t.Errorf("produce(%d) started %d ahead of consume, width %d", i, ahead, width)
				}
				produced[i].Store(true)
				return nil
			}, func(i int) error {
				if !produced[i].Load() {
					t.Errorf("consume(%d) before its produce", i)
				}
				order = append(order, i)
				consumed.Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(order) != n {
				t.Fatalf("consumed %d of %d", len(order), n)
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("consume order[%d] = %d", i, got)
				}
			}
		})
	}
}

// TestForEachOrderedErrors: an error from either side stops the walk, is
// returned, and leaves no produce running.
func TestForEachOrderedErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{-1, 4} {
		r := &Repo{Config: Config{MaintWorkers: workers}}
		var running, consumed atomic.Int64
		produce := func(failAt int) func(int) error {
			return func(i int) error {
				running.Add(1)
				defer running.Add(-1)
				if i == failAt {
					return boom
				}
				return nil
			}
		}
		err := r.ForEachOrdered(20, produce(7), func(i int) error { consumed.Add(1); return nil })
		if !errors.Is(err, boom) || consumed.Load() != 7 || running.Load() != 0 {
			t.Fatalf("workers=%d produce error: err=%v consumed=%d running=%d", workers, err, consumed.Load(), running.Load())
		}
		consumed.Store(0)
		err = r.ForEachOrdered(20, produce(-1), func(i int) error {
			if i == 5 {
				return boom
			}
			consumed.Add(1)
			return nil
		})
		if !errors.Is(err, boom) || consumed.Load() != 5 || running.Load() != 0 {
			t.Fatalf("workers=%d consume error: err=%v consumed=%d running=%d", workers, err, consumed.Load(), running.Load())
		}
	}
}
