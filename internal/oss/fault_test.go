package oss

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestFaultyCorruptReadIsTransient: a corrupt read damages the bytes that
// one read returns and nothing else. Over a store that shares its memory
// (Mem) a flip in place would rot the object at rest — the disarmed read
// and the inner store would both return the flipped byte.
func TestFaultyCorruptReadIsTransient(t *testing.T) {
	want := []byte("0123456789abcdef")
	mem := NewFrozen(NewMem())
	mem.Put("k", want)
	f := NewFaulty(mem)
	f.CorruptReads("k")
	for name, read := range map[string]func(Store) ([]byte, error){
		"Get":      func(s Store) ([]byte, error) { return s.Get("k") },
		"GetRange": func(s Store) ([]byte, error) { return s.GetRange("k", 4, 8) },
	} {
		clean, _ := read(mem)
		clean = bytes.Clone(clean) // a private copy: the view is what is under test
		bad, err := read(f)
		if err != nil || bytes.Equal(bad, clean) {
			t.Fatalf("%s: armed read = %q, %v; want flipped bytes", name, bad, err)
		}
		f.Clear()
		again, _ := read(f)
		inner, _ := read(mem)
		if !bytes.Equal(again, clean) || !bytes.Equal(inner, clean) {
			t.Fatalf("%s: after disarming, read = %q, inner store = %q, want %q", name, again, inner, clean)
		}
		f.CorruptReads("k")
	}
	if err := mem.Check(); err != nil {
		t.Fatal(err)
	}
}

// corruptSchedule runs a fixed operation sequence against a freshly
// seeded Faulty and records, per Get, whether the corruption stream
// fired. The other knobs (failRate, targeted maps, put budget) are
// configured by the caller before the run.
func corruptSchedule(t *testing.T, seed int64, arm func(*Faulty)) []bool {
	t.Helper()
	mem := NewMem()
	f := NewFaulty(mem)
	f.Seed(seed)
	f.CorruptRate(0.5)
	arm(f)
	want := []byte("0123456789abcdef")
	for i := 0; i < 4; i++ {
		// Writes go to the inner store directly so failRate/put-budget
		// settings cannot change which objects exist.
		if err := mem.Put(fmt.Sprintf("k%d", i), want); err != nil {
			t.Fatal(err)
		}
	}
	var fired []bool
	for i := 0; i < 64; i++ {
		b, err := f.Get(fmt.Sprintf("k%d", i%4))
		if err != nil {
			// A fail-mode injection still consumed exactly one draw from
			// each armed stream; the corruption decision for this slot is
			// unobservable, so replay it from the schedule invariant: mark
			// it false and let the cross-run comparison skip it.
			fired = append(fired, false)
			continue
		}
		fired = append(fired, b[len(b)/2] != want[len(want)/2])
	}
	return fired
}

// TestFaultStreamsIndependent is the regression test for the seeded
// fault composition fix: the corruption schedule drawn from one seed
// must be identical whether or not the fail mode, targeted maps, or put
// budget are armed alongside it.
func TestFaultStreamsIndependent(t *testing.T) {
	const seed = 99
	base := corruptSchedule(t, seed, func(f *Faulty) {})
	variants := map[string]func(*Faulty){
		"failRate":  func(f *Faulty) { f.FailRate(0.3) },
		"targeted":  func(f *Faulty) { f.FailGet("k1"); f.FailPut("k2"); f.CorruptReads("k3") },
		"putBudget": func(f *Faulty) { f.FailPutsAfter(2) },
	}
	for name, arm := range variants {
		got := corruptSchedule(t, seed, arm)
		if len(got) != len(base) {
			t.Fatalf("%s: schedule length %d, want %d", name, len(got), len(base))
		}
		for i := range base {
			// Slots whose observation the variant perturbs by design are
			// excluded: targeted CorruptReads/FailGet pin k1/k3 outcomes,
			// and a fail-mode injection masks that slot's corrupt
			// observation as false (never as a spurious true).
			if name == "targeted" && i%4 != 0 && i%4 != 2 {
				continue
			}
			if name == "failRate" {
				if got[i] && !base[i] {
					t.Fatalf("%s: corruption fired at op %d only with the extra mode armed", name, i)
				}
				continue
			}
			if got[i] != base[i] {
				t.Fatalf("%s: corruption schedule diverged at op %d (base=%v got=%v)", name, i, base[i], got[i])
			}
		}
	}
}

// TestFaultSeedDeterminism pins that one seed reproduces the exact same
// injected-failure sequence across runs.
func TestFaultSeedDeterminism(t *testing.T) {
	run := func() []bool {
		f := NewFaulty(NewMem())
		f.Seed(7)
		f.FailRate(0.4)
		var fails []bool
		for i := 0; i < 100; i++ {
			err := f.Put("k", []byte("x"))
			fails = append(fails, err != nil)
			if err != nil && !errors.Is(err, ErrInjected) {
				t.Fatalf("op %d: unexpected error class %v", i, err)
			}
		}
		return fails
	}
	a, b := run(), run()
	var n int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded failure sequence diverged at op %d", i)
		}
		if a[i] {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Fatalf("failRate 0.4 produced %d/%d failures — stream not live", n, len(a))
	}
}

// TestFaultOutage pins the whole-backend outage mode: every operation
// class fails with ErrInjected while down, and the store heals cleanly
// when the outage lifts.
func TestFaultOutage(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem)
	if err := f.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	f.SetOutage(true)
	if !f.Outage() {
		t.Fatal("Outage() false after SetOutage(true)")
	}
	if err := f.Put("b", []byte("2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Put during outage: %v", err)
	}
	if _, err := f.Get("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get during outage: %v", err)
	}
	if _, err := f.GetRange("a", 0, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("GetRange during outage: %v", err)
	}
	if _, err := f.Head("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Head during outage: %v", err)
	}
	if err := f.Delete("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("Delete during outage: %v", err)
	}
	if _, err := f.List(""); !errors.Is(err, ErrInjected) {
		t.Fatalf("List during outage: %v", err)
	}
	f.SetOutage(false)
	if b, err := f.Get("a"); err != nil || string(b) != "1" {
		t.Fatalf("Get after heal: %q, %v", b, err)
	}
	// Clear() also lifts an outage.
	f.SetOutage(true)
	f.Clear()
	if f.Outage() {
		t.Fatal("Clear() left the outage armed")
	}
}
