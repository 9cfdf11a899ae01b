package oss

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"slimstore/internal/simclock"
)

// TestRequestThroughLayersAllocatesNothing: a request through the three
// layers the product stacks costs no allocation of its own — the reason a
// Layer takes and returns the Op by value (a *Op escapes through the
// interface call: three allocations per request through three layers).
// A prefix costs the one string that is the rewritten key.
func TestRequestThroughLayersAllocatesNothing(t *testing.T) {
	mem := NewMem()
	mem.Put("k", []byte("0123456789"))
	mem.Put("t/k", []byte("0123456789"))
	stack := func(prefix string) Store {
		return NewMetered(NewPrefixed(NewRetry(mem, 4, time.Millisecond, nil), prefix), simclock.DefaultCosts(), simclock.NewAccount())
	}
	for prefix, want := range map[string]float64{"": 0, "t": 1} {
		s := stack(prefix)
		for name, call := range map[string]func(){
			"Get":      func() { s.Get("k") },
			"GetRange": func() { s.GetRange("k", 2, 4) },
			"Head":     func() { s.Head("k") },
			"Delete":   func() { s.Delete("absent") },
		} {
			if got := testing.AllocsPerRun(100, call); got != want {
				t.Errorf("prefix %q: %s through Metered+Prefixed+Retry: %v allocations, want %v", prefix, name, got, want)
			}
		}
	}
}

// TestEveryKindThroughEveryLayer drives the six kinds through each exported
// layer: it sees each request as issued, the store beneath sees the same
// request (under Prefixed, with the key prefixed), and data, size, keys and
// the error's identity come back as the store beneath gave them.
func TestEveryKindThroughEveryLayer(t *testing.T) {
	layer := func(l Layer) func(Store) Store { return func(s Store) Store { return With(s, l) } }
	for name, row := range map[string]struct {
		wrap  func(Store) Store
		under string // what the layer puts in front of a key
	}{
		"Metered":   {func(s Store) Store { return NewMetered(s, simclock.DefaultCosts(), simclock.NewAccount()) }, ""},
		"Prefixed":  {func(s Store) Store { return NewPrefixed(s, "p") }, "p/"},
		"Retry":     {func(s Store) Store { return NewRetry(s, 3, time.Millisecond, func(time.Duration) {}) }, ""},
		"Faulty":    {func(s Store) Store { return NewFaulty(s) }, ""},
		"Frozen":    {func(s Store) Store { return NewFrozen(s) }, ""},
		"Recorder":  {layer(&Recorder{}), ""},
		"Barrier":   {layer(&Barrier{}), ""},
		"Crash":     {layer(CrashAfter(-1)), ""},
		"Sleep":     {layer(Sleep(0)), ""},
		"LayerFunc": {layer(LayerFunc(func(op Op, next Store) (Op, error) { return Do(next, op) })), ""},
	} {
		t.Run(name, func(t *testing.T) {
			var above, below Recorder
			mem := NewMem()
			s := With(row.wrap(With(mem, &below)), &above)
			issued := []Op{
				{Kind: KindPut, Key: "a", Data: []byte("alpha")},
				{Kind: KindPut, Key: "b", Data: []byte("beta")},
				{Kind: KindGet, Key: "a"},
				{Kind: KindGetRange, Key: "a", Off: 1, N: 3},
				{Kind: KindHead, Key: "b"},
				{Kind: KindList, Key: ""},
				{Kind: KindGet, Key: "missing"},
				{Kind: KindDelete, Key: "b"},
			}
			want := []Op{{}, {}, {Data: []byte("alpha")}, {Data: []byte("lph")}, {Size: 4}, {Keys: []string{"a", "b"}}, {}, {}}
			for i, op := range issued {
				got, err := Do(s, op)
				if (op.Key == "missing") != errors.Is(err, ErrNotFound) || (err != nil && op.Key != "missing") {
					t.Fatalf("%s: %v", op, err)
				}
				if op.Kind != KindPut && (string(got.Data) != string(want[i].Data) || got.Size != want[i].Size || !reflect.DeepEqual(got.Keys, want[i].Keys)) {
					t.Errorf("%s returned %q, %d, %v", op, got.Data, got.Size, got.Keys)
				}
			}
			if got, _ := mem.Get(row.under + "a"); string(got) != "alpha" {
				t.Errorf("the put landed as %q under %q", got, row.under+"a")
			}
			saw, reached := above.Take(), below.Take()
			if len(saw) != len(issued) || len(reached) != len(issued) {
				t.Fatalf("%d requests issued, %d entered the layer, %d left it", len(issued), len(saw), len(reached))
			}
			for i, op := range issued {
				for _, side := range []struct {
					got Request
					key string
				}{{saw[i], op.Key}, {reached[i], row.under + op.Key}} {
					g := side.got
					if g.Kind != op.Kind || g.Key != side.key || g.Off != op.Off || g.N != op.N || (g.Err != nil) != (op.Key == "missing") {
						t.Errorf("request %d, %s: recorded as %s, err %v", i, op, g.Op, g.Err)
					}
				}
			}
		})
	}
}

// TestRecorder: arrival order, what came back, the filter, and the
// in-flight high-water mark per predicate.
func TestRecorder(t *testing.T) {
	var rec Recorder
	var hold Barrier
	s := With(NewMem(), &rec, &hold)
	s.Put("a", []byte("alpha"))
	s.GetRange("a", 1, 3)
	s.Get("nope")
	s.Head("a")
	s.List("")
	s.Delete("a")
	isRead := func(op Op) bool { return op.Kind == KindGet || op.Kind == KindGetRange }
	var names []string
	for _, q := range rec.Requests(nil) {
		names = append(names, fmt.Sprintf("%s %d %v", q.Op, q.Bytes, q.Err != nil))
	}
	if want := []string{"put a 5 false", "getrange a [1,+3) 3 false", "get nope 0 true", "head a 0 false", "list  0 false", "delete a 0 false"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("recorded %q, want %q", names, want)
	}
	reqs := rec.Requests(isRead)
	if len(reqs) != 2 || string(reqs[0].Data) != "lph" || !errors.Is(reqs[1].Err, ErrNotFound) {
		t.Fatalf("filtered reads: %+v", reqs)
	}
	if q := rec.Requests(nil)[0]; q.Data != nil || q.Sum == 0 || rec.Requests(nil)[4].Keys[0] != "a" || rec.Requests(nil)[3].Size != 5 {
		t.Fatalf("a put's payload is kept, or a result is not: %+v", rec.Requests(nil))
	}
	if now, peak := rec.InFlight(nil); now != 0 || peak != 1 {
		t.Fatalf("serial requests: %d in flight, peak %d", now, peak)
	}
	if got := rec.Take(); len(got) != 6 || len(rec.Take()) != 0 {
		t.Fatalf("Take returned %d requests, then more", len(got))
	}

	// Three reads and a head held together: the peak is per predicate.
	hold.Expect(func(Op) bool { return true }, 4)
	var wg sync.WaitGroup
	for _, call := range []func(){func() { s.Get("x") }, func() { s.Get("y") }, func() { s.GetRange("z", 0, 1) }, func() { s.Head("x") }} {
		wg.Add(1)
		go func() { defer wg.Done(); call() }()
	}
	wg.Wait()
	now, all := rec.InFlight(nil)
	if _, reads := rec.InFlight(isRead); all != 4 || reads != 3 || now != 0 {
		t.Fatalf("peak %d of all and %d of reads, %d still in flight; want 4, 3, 0", all, reads, now)
	}
	if err := hold.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBarrier: waves that form release together and in turn; a request
// whose wave never forms is an error naming it, for it and from Err, and
// whatever comes after it is not held.
func TestBarrier(t *testing.T) {
	var rec Recorder
	bar := &Barrier{Timeout: 50 * time.Millisecond}
	s := With(NewMem(), bar, &rec)
	isGet := func(op Op) bool { return op.Kind == KindGet }
	bar.Expect(isGet, 3, 2)
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Get(fmt.Sprint("k", i)) }()
	}
	s.Put("unheld", nil) // not a get: passes while the waves wait
	wg.Wait()
	if err := bar.Err(); err != nil {
		t.Fatalf("waves of 3 and 2 out of 5 concurrent gets: %v", err)
	}
	if n := len(rec.Requests(isGet)); n != 5 {
		t.Fatalf("%d gets reached the store", n)
	}
	s.Get("after") // nothing armed any more

	bar.Expect(isGet, 2)
	_, err := s.Get("lonely")
	if err == nil || !strings.Contains(err.Error(), "get lonely waited alone") {
		t.Fatalf("a get whose wave never formed returned %v", err)
	}
	if _, err := s.Get("next"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the request after a timeout: %v", err)
	}
	if err := bar.Err(); err == nil || !strings.Contains(err.Error(), "get lonely waited alone") || !strings.Contains(err.Error(), "1 of a wave of 2 arrived") {
		t.Fatalf("Err after a timeout: %v", err)
	}

	bar = &Barrier{}
	bar.Expect(isGet, 1, 4)
	With(NewMem(), bar).Get("k")
	if err := bar.Err(); err == nil || !strings.Contains(err.Error(), "0 of a wave of 4 arrived") {
		t.Fatalf("Err with a wave never started: %v", err)
	}
}

// TestCrashAfter: puts and deletes spend the budget, reads do not; after
// the first refusal every mutation is refused, those of concurrent workers
// included, and nothing more reaches the store.
func TestCrashAfter(t *testing.T) {
	mem := NewMem()
	crash := CrashAfter(3)
	s := With(mem, crash)
	s.Put("a", []byte("1"))
	s.Get("a")
	s.List("")
	s.Delete("a")
	s.Head("a")
	s.Put("b", []byte("2"))
	if crash.Spent() != 3 {
		t.Fatalf("two puts and a delete spent %d", crash.Spent())
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				errs[i] = s.Put(fmt.Sprint("w", i), []byte("x"))
			} else {
				errs[i] = s.Delete("b")
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("worker %d after the crash: %v", i, err)
		}
	}
	if keys, _ := mem.List(""); !reflect.DeepEqual(keys, []string{"b"}) || crash.Spent() != 3 {
		t.Fatalf("after the crash the store holds %v, %d spent", keys, crash.Spent())
	}
	if _, err := s.Get("b"); err != nil {
		t.Fatalf("a read after the crash: %v", err)
	}
	never := CrashAfter(-1)
	for i := 0; i < 10; i++ {
		if err := With(mem, never).Put("k", nil); err != nil {
			t.Fatal(err)
		}
	}
	if never.Spent() != 10 {
		t.Fatalf("a budget of -1 counted %d of 10", never.Spent())
	}
}

// failures is a TB that records its Fatalf calls instead of stopping.
type failures []string

func (*failures) Helper()                     {}
func (*failures) Logf(string, ...any)         {}
func (f *failures) Fatalf(s string, a ...any) { *f = append(*f, fmt.Sprintf(s, a...)) }

// TestCrashAtEvery: an op of three puts runs at budgets 0 to 3, each time
// over a fresh clone the baseline does not see, and the run that completes
// ends the loop; an op that swallows the crash, fails otherwise, never
// completes or writes through a Get view into the shared bytes fails the
// test.
func TestCrashAtEvery(t *testing.T) {
	base := NewMem()
	base.Put("base", []byte{0})
	three := func(s Store) error {
		return errors.Join(s.Put("a", nil), s.Put("b", nil), s.Put("c", nil))
	}
	var landed []int
	CrashAtEvery(t, base, 1, 10, three, func(mem *Mem, _ int, _ error) bool {
		landed = append(landed, mem.Len())
		return false
	})
	if !reflect.DeepEqual(landed, []int{1, 2, 3, 4}) || base.Len() != 1 {
		t.Fatalf("clones held %v objects, the baseline %d", landed, base.Len())
	}
	for name, op := range map[string]func(Store) error{
		"swallows": func(s Store) error { three(s); return nil },
		"fails":    func(Store) error { return errors.New("not a crash") },
		"never":    func(Store) error { return ErrInjected },
		"writes": func(s Store) error {
			b, err := s.Get("base")
			b[0]++
			return err
		},
	} {
		var f failures
		CrashAtEvery(&f, base, 1, 10, op, func(*Mem, int, error) bool { return false })
		if len(f) == 0 {
			t.Errorf("%s: the loop did not fail", name)
		}
	}
}
