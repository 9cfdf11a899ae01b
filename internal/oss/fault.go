package oss

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// ErrInjected marks failures produced by a Faulty store.
var ErrInjected = errors.New("oss: injected fault")

// Salts of the per-mode RNG streams a Faulty that was never seeded draws from.
const (
	failSeedSalt    int64 = 0x5f3759df
	corruptSeedSalt int64 = 0x2545f491
)

// Faulty wraps a Store and injects deterministic failures, for testing
// error propagation and crash-recovery paths (a put that never lands, a
// flaky read, a store that dies after N operations, a key prefix — one
// backend of the erasure-coded tier, or the whole store — going dark). All
// knobs are safe for concurrent use.
type Faulty struct {
	Store // inner seen through Do

	mu       sync.Mutex
	failPuts map[string]bool // keys whose Put fails
	failGets map[string]bool // keys whose Get/GetRange fails
	putsLeft int             // if >= 0, number of Puts allowed before all fail
	opCount  int64
	corrupt  map[string]bool // keys whose reads return flipped bytes
	down     map[string]bool // key prefixes in outage: every operation under one fails

	// Probabilistic modes. Each mode draws from its own seeded RNG stream,
	// and an armed mode draws exactly once per operation regardless of the
	// other modes' settings or the targeted maps — so the fault schedule of
	// one mode is a pure function of (its seed, the operation sequence) and
	// composes deterministically with the others.
	failRng     *rand.Rand
	corruptRng  *rand.Rand
	failRate    float64 // probability a Put/Get/GetRange fails
	corruptRate float64 // probability a Get/GetRange returns flipped bytes
}

// NewFaulty wraps inner with no faults armed.
func NewFaulty(inner Store) *Faulty {
	f := &Faulty{
		failPuts: make(map[string]bool),
		failGets: make(map[string]bool),
		putsLeft: -1,
		corrupt:  make(map[string]bool),
		down:     make(map[string]bool),
	}
	f.Store = With(inner, f)
	return f
}

// FailPut arms a failure for every Put of key.
func (f *Faulty) FailPut(key string) {
	f.mu.Lock()
	f.failPuts[key] = true
	f.mu.Unlock()
}

// FailGet arms a failure for every Get/GetRange of key.
func (f *Faulty) FailGet(key string) {
	f.mu.Lock()
	f.failGets[key] = true
	f.mu.Unlock()
}

// FailPutsAfter lets n more Puts succeed, then fails every subsequent Put
// (simulating the node losing its OSS connection mid-backup).
func (f *Faulty) FailPutsAfter(n int) {
	f.mu.Lock()
	f.putsLeft = n
	f.mu.Unlock()
}

// CorruptReads makes reads of key return bit-flipped data (for integrity
// verification tests).
func (f *Faulty) CorruptReads(key string) {
	f.mu.Lock()
	f.corrupt[key] = true
	f.mu.Unlock()
}

// SetOutage switches the outage of one key prefix: while it is down, every
// operation on a key under it (reads, writes, deletes, and lists of a
// prefix under it) fails with ErrInjected. "" is the whole store;
// BackendPrefix(i) is one fault domain of the erasure-coded tier going
// dark, which the tier must keep serving through.
func (f *Faulty) SetOutage(prefix string, down bool) {
	f.mu.Lock()
	f.down[prefix] = down
	f.mu.Unlock()
}

// SetRand seeds the probabilistic modes from an injected RNG: two child
// streams are derived, one per mode, so arming or disarming one mode
// never perturbs the fault sequence of the other.
func (f *Faulty) SetRand(r *rand.Rand) {
	f.mu.Lock()
	f.failRng = rand.New(rand.NewSource(r.Int63()))
	f.corruptRng = rand.New(rand.NewSource(r.Int63()))
	f.mu.Unlock()
}

// FailRate arms probabilistic failures: each Put/Get/GetRange fails with
// probability p (0 disarms).
func (f *Faulty) FailRate(p float64) {
	f.mu.Lock()
	f.failRate = p
	f.mu.Unlock()
}

// CorruptRate arms probabilistic read corruption: each Get/GetRange
// returns flipped bytes with probability p (0 disarms).
func (f *Faulty) CorruptRate(p float64) {
	f.mu.Lock()
	f.corruptRate = p
	f.mu.Unlock()
}

// roll draws from one mode's stream, returning true with probability p.
// An armed mode (p > 0) draws exactly once per call. Caller holds f.mu.
func (f *Faulty) roll(rng **rand.Rand, salt int64, p float64) bool {
	if p <= 0 {
		return false
	}
	if *rng == nil {
		*rng = rand.New(rand.NewSource(1 ^ salt))
	}
	return (*rng).Float64() < p
}

// Clear disarms every fault, including the probabilistic rates and the
// outage mode.
func (f *Faulty) Clear() {
	f.mu.Lock()
	f.failPuts = make(map[string]bool)
	f.failGets = make(map[string]bool)
	f.corrupt = make(map[string]bool)
	f.putsLeft = -1
	f.failRate = 0
	f.corruptRate = 0
	f.down = make(map[string]bool)
	f.mu.Unlock()
}

// Ops returns the number of operations observed.
func (f *Faulty) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opCount
}

// gate counts op and decides its fate: an error to fail it with, or
// whether its bytes come back flipped. The streams advance by kind alone
// — a put draws the fail stream once, a get, getrange or head the fail and
// the corrupt stream once each, a delete or list nothing — and before any
// early return, so a mode's schedule is a function of the operation
// sequence, never of which fault fired or what else is armed.
func (f *Faulty) gate(op Op) (corrupt bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opCount++
	put := op.Kind == KindPut
	read := op.Kind == KindGet || op.Kind == KindGetRange || op.Kind == KindHead
	failRoll := (put || read) && f.roll(&f.failRng, failSeedSalt, f.failRate)
	corruptRoll := read && f.roll(&f.corruptRng, corruptSeedSalt, f.corruptRate)
	dark := false
	for p, down := range f.down {
		dark = dark || down && strings.HasPrefix(op.Key, p)
	}
	switch {
	case dark:
		return false, fmt.Errorf("%w: %s (backend down)", ErrInjected, op)
	case put && f.failPuts[op.Key], read && f.failGets[op.Key]:
		return false, fmt.Errorf("%w: %s", ErrInjected, op)
	case put && f.putsLeft == 0:
		return false, fmt.Errorf("%w: put budget exhausted at %s", ErrInjected, op.Key)
	}
	if put && f.putsLeft > 0 {
		f.putsLeft--
	}
	if failRoll {
		return false, fmt.Errorf("%w: %s (probabilistic)", ErrInjected, op)
	}
	return read && (f.corrupt[op.Key] || corruptRoll), nil
}

// Do implements Layer.
func (f *Faulty) Do(op Op, next Store) (Op, error) {
	corrupt, err := f.gate(op)
	if err != nil {
		return op, err
	}
	op, err = Do(next, op)
	if err == nil && corrupt && len(op.Data) > 0 {
		// Flip a copy: the result is the inner store's read-only bytes and
		// may be the stored object itself, so a flip in place would rot the
		// object at rest and every view of it already handed out. The copy is
		// what keeps a corrupt read transient; at-rest rot is a Put of damaged
		// bytes, never a read.
		op.Data = bytes.Clone(op.Data)
		op.Data[len(op.Data)/2] ^= 0xFF
	}
	return op, err
}
