package oss

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
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
	f.SetRand(rand.New(rand.NewSource(seed)))
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

// TestFaultSeedDeterminism pins the fault schedule itself: which draws a
// request of each kind takes from which stream (a put one from the fail
// stream; a get, getrange or head one from each; a delete or list none),
// whatever else is armed. The sum is of every outcome of a fixed mixed
// sequence — errors, flipped bytes, the op count — and was taken from the
// six-method Faulty this one replaced: every chaos, repl and stress seed
// replays the schedule it always had.
func TestFaultSeedDeterminism(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem)
	f.SetRand(rand.New(rand.NewSource(42)))
	f.FailRate(0.3)
	f.CorruptRate(0.4)
	f.FailPutsAfter(40)
	f.FailGet("k3")
	h, r := fnv.New64a(), rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		op := Op{Kind: Kind(r.Intn(6)), Key: fmt.Sprint("k", r.Intn(8)), Off: 2, N: 8}
		mem.Put(op.Key, []byte("0123456789abcdef"))
		f.SetOutage("", i/100 == 7)
		res, err := Do(f, op)
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("%s: unexpected error class %v", op, err)
		}
		fmt.Fprint(h, string(res.Data), res.Size, len(res.Keys), err != nil, ";")
	}
	if got := fmt.Sprintf("%d %x", f.Ops(), h.Sum64()); got != "2000 aa96031a3aed2faf" {
		t.Fatalf("fault schedule = %s, want 2000 aa96031a3aed2faf", got)
	}
}

// TestFaultOutage pins the outage mode: every operation class on a key
// under a dark prefix fails with ErrInjected ("" is the whole store), keys
// outside it are served, and the store heals cleanly when the outage
// lifts.
func TestFaultOutage(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem)
	if err := f.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	dark := func(key string) bool {
		_, err := f.Get(key)
		return errors.Is(err, ErrInjected)
	}
	f.SetOutage("", true)
	for _, op := range sixKinds {
		if _, err := Do(f, op); !errors.Is(err, ErrInjected) {
			t.Fatalf("%s during outage: %v", op, err)
		}
	}
	f.SetOutage("", false)
	if b, err := f.Get("a"); err != nil || string(b) != "1" {
		t.Fatalf("Get after heal: %q, %v", b, err)
	}
	// An outage is scoped by key prefix: one backend of a set goes dark,
	// its neighbours and the rest of the store do not.
	f.SetOutage(BackendPrefix(1), true)
	if _, err := f.List(BackendPrefix(1) + "x/"); !errors.Is(err, ErrInjected) {
		t.Fatalf("list under the dark prefix: %v", err)
	}
	if !dark(BackendPrefix(1)+"k") || dark(BackendPrefix(0)+"k") || dark("a") {
		t.Fatal("an outage of backend 1 must fail its keys and no others")
	}
	// Clear() also lifts an outage.
	f.Clear()
	if dark(BackendPrefix(1) + "k") {
		t.Fatal("Clear() left the outage armed")
	}
}
