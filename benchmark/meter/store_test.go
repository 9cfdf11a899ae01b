package meter

import (
	"errors"
	"sync"
	"testing"
	"time"

	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

var testCosts = simclock.Costs{
	OSSRequestLatency: 4 * time.Millisecond,
	OSSReadBandwidth:  1 << 20, // 1 MiB/s: 16 KiB costs ~15.6ms more
	OSSWriteBandwidth: 2 << 20,
}

func TestStoreCostIsLatencyPlusBytesOverBandwidth(t *testing.T) {
	s := NewStore(oss.NewMem(), testCosts, nil)
	ms := func(f float64) time.Duration { return time.Duration(f * float64(time.Millisecond)) }
	for _, c := range []struct {
		k    OpKind
		n    int64
		want time.Duration
	}{
		{OpGet, 16 << 10, ms(4 + 15.625)},
		{OpGetRange, 1 << 20, ms(4 + 1000)},
		{OpPut, 16 << 10, ms(4 + 7.8125)},
		{OpHead, 0, ms(4)},
		{OpDelete, 0, ms(4)},
		{OpList, 0, ms(4)},
	} {
		if got := s.Cost(c.k, c.n); got != c.want {
			t.Errorf("Cost(%v, %d) = %v, want %v", c.k, c.n, got, c.want)
		}
	}
	// The defaults are the simclock model: what the sleeping store charges
	// is what Account.ChargeRead/ChargeWrite charge.
	d := NewStore(oss.NewMem(), simclock.DefaultCosts(), nil)
	acct := simclock.NewAccount()
	acct.ChargeRead(simclock.DefaultCosts(), 4<<20)
	acct.ChargeWrite(simclock.DefaultCosts(), 4<<20)
	if io := acct.IO(); d.Cost(OpGet, 4<<20) != io.ReadTime || d.Cost(OpPut, 4<<20) != io.WriteTime {
		t.Fatalf("store cost %v/%v differs from simclock %v/%v",
			d.Cost(OpGet, 4<<20), d.Cost(OpPut, 4<<20), io.ReadTime, io.WriteTime)
	}
}

func TestStoreSleepsCountsAndForwards(t *testing.T) {
	s := NewStore(oss.NewMem(), testCosts, nil)
	payload := make([]byte, 16<<10)

	// Not sleeping: the same requests cost next to nothing.
	t0 := time.Now()
	if err := s.Put("containers/C1.data", payload); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(t0); d > 3*time.Millisecond {
		t.Fatalf("store slept %v with sleeping off", d)
	}

	s.SetSleep(true)
	t0 = time.Now()
	got, err := s.Get("containers/C1.data")
	d := time.Since(t0)
	if err != nil || len(got) != len(payload) {
		t.Fatalf("get: %d bytes, %v", len(got), err)
	}
	if want := s.Cost(OpGet, int64(len(payload))); d < want {
		t.Fatalf("get of %d bytes took %v, model says at least %v", len(payload), d, want)
	}
	if _, err := s.GetRange("containers/C1.data", 0, 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Head("containers/C1.data"); err != nil {
		t.Fatal(err)
	}
	if keys, err := s.List("containers/"); err != nil || len(keys) != 1 {
		t.Fatalf("list: %v, %v", keys, err)
	}
	// Errors come back unchanged and are counted; a failed request still
	// costs its round trip.
	t0 = time.Now()
	_, err = s.Get("recipes/missing")
	if !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("error not forwarded: %v", err)
	}
	if d := time.Since(t0); d < testCosts.OSSRequestLatency {
		t.Fatalf("failed get took %v, less than one round trip", d)
	}
	if err := s.Delete("containers/C1.data"); err != nil {
		t.Fatal(err)
	}

	c := s.Counters()
	wantOps := [NumOps]int64{OpPut: 1, OpGet: 2, OpGetRange: 1, OpHead: 1, OpDelete: 1, OpList: 1}
	if c.Ops != wantOps || c.Requests() != 7 || c.Failed != 1 {
		t.Fatalf("ops %v failed %d", c.Ops, c.Failed)
	}
	if c.Bytes[OpPut] != 16<<10 || c.Bytes[OpGet] != 16<<10 || c.Bytes[OpGetRange] != 1024 {
		t.Fatalf("bytes %v", c.Bytes)
	}
	if c.NS[0] != 6 || c.NS[1] != 1 || c.PutBytesIn("containers") != 16<<10 || c.PutBytesIn("gidx") != 0 {
		t.Fatalf("namespaces %v, put bytes %v", c.NS, c.PutNS)
	}
	if c.MaxInflight != 1 || c.Busy < c.Covered || c.Covered <= 0 {
		t.Fatalf("serial requests: inflight %d busy %v covered %v", c.MaxInflight, c.Busy, c.Covered)
	}
	if d := c.Sub(c); d.Requests() != 0 || d.Busy != 0 || d.PutBytesIn("containers") != 0 || d.MaxInflight != 1 {
		t.Fatalf("c - c = %+v", d)
	}
	if d := c.Add(c); d.Requests() != 14 || d.Busy != 2*c.Busy || d.PutBytesIn("containers") != 32<<10 || d.MaxInflight != 1 {
		t.Fatalf("c + c = %+v", d)
	}
}

func TestStoreTracksOverlapAndSpans(t *testing.T) {
	tr := NewTracer()
	phase := tr.Begin(0, "harness", "phase")
	tr.SetCurrent(phase)
	s := NewStore(oss.NewMem(), testCosts, tr)
	s.SetSleep(true)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put("journal/x", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c := s.Counters()
	if c.MaxInflight < 2 {
		t.Skipf("requests did not overlap on this host (max in flight %d)", c.MaxInflight)
	}
	// Four overlapping 4ms requests: about 16ms busy inside much less covered.
	if c.Busy <= c.Covered {
		t.Fatalf("busy %v should exceed covered %v when requests overlap", c.Busy, c.Covered)
	}
	n := 0
	for _, sp := range tr.Spans() {
		if sp.Layer == "oss" {
			n++
			if sp.Parent != phase || sp.Name != "put journal" {
				t.Fatalf("request span %+v", sp)
			}
		}
	}
	if n != 4 {
		t.Fatalf("%d request spans, want 4", n)
	}
}
