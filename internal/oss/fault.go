package oss

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrInjected marks failures produced by a Faulty store.
var ErrInjected = errors.New("oss: injected fault")

// Salts deriving the per-mode RNG streams from one seed (see Seed).
const (
	failSeedSalt    int64 = 0x5f3759df
	corruptSeedSalt int64 = 0x2545f491
)

// Faulty wraps a Store and injects deterministic failures, for testing
// error propagation and crash-recovery paths (a put that never lands, a
// flaky read, a store that dies after N operations, a whole backend going
// dark). All knobs are safe for concurrent use.
type Faulty struct {
	inner Store

	mu       sync.Mutex
	failPuts map[string]bool // keys whose Put fails
	failGets map[string]bool // keys whose Get/GetRange fails
	putsLeft int             // if >= 0, number of Puts allowed before all fail
	opCount  int64
	corrupt  map[string]bool // keys whose reads return flipped bytes
	down     bool            // whole-backend outage: every operation fails

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
	return &Faulty{
		inner:    inner,
		failPuts: make(map[string]bool),
		failGets: make(map[string]bool),
		putsLeft: -1,
		corrupt:  make(map[string]bool),
	}
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

// SetOutage switches the whole-backend outage mode: while down, every
// operation (reads, writes, deletes, lists) fails with ErrInjected. This
// models one fault domain of a multi-backend deployment going dark; the
// erasure-coded tier must keep serving through it.
func (f *Faulty) SetOutage(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

// Outage reports whether the whole-backend outage mode is armed.
func (f *Faulty) Outage() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

// Seed arms both probabilistic RNG streams deterministically from one
// seed. Each mode gets its own derived stream, so arming or disarming one
// mode never perturbs the fault sequence of another.
func (f *Faulty) Seed(seed int64) {
	f.mu.Lock()
	f.failRng = rand.New(rand.NewSource(seed ^ failSeedSalt))
	f.corruptRng = rand.New(rand.NewSource(seed ^ corruptSeedSalt))
	f.mu.Unlock()
}

// SetRand seeds the probabilistic modes from an injected RNG (two child
// streams are derived, one per mode). Kept for callers that already hold
// a *rand.Rand; Seed is the single-integer equivalent.
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
	f.down = false
	f.mu.Unlock()
}

// Ops returns the number of operations observed.
func (f *Faulty) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opCount
}

func (f *Faulty) putAllowed(key string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opCount++
	// Draw before any early return so the stream position depends only on
	// the operation sequence, never on which fault fired.
	failRoll := f.roll(&f.failRng, failSeedSalt, f.failRate)
	if f.down {
		return fmt.Errorf("%w: put %s (backend down)", ErrInjected, key)
	}
	if f.failPuts[key] {
		return fmt.Errorf("%w: put %s", ErrInjected, key)
	}
	if f.putsLeft == 0 {
		return fmt.Errorf("%w: put budget exhausted at %s", ErrInjected, key)
	}
	if f.putsLeft > 0 {
		f.putsLeft--
	}
	if failRoll {
		return fmt.Errorf("%w: put %s (probabilistic)", ErrInjected, key)
	}
	return nil
}

func (f *Faulty) getCheck(key string) (corrupt bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opCount++
	// Both armed streams advance unconditionally: each mode's decision
	// sequence is independent of the other mode's outcome and of the
	// targeted maps, so schedules compose deterministically from one seed.
	failRoll := f.roll(&f.failRng, failSeedSalt, f.failRate)
	corruptRoll := f.roll(&f.corruptRng, corruptSeedSalt, f.corruptRate)
	if f.down {
		return false, fmt.Errorf("%w: get %s (backend down)", ErrInjected, key)
	}
	if f.failGets[key] {
		return false, fmt.Errorf("%w: get %s", ErrInjected, key)
	}
	if failRoll {
		return false, fmt.Errorf("%w: get %s (probabilistic)", ErrInjected, key)
	}
	return f.corrupt[key] || corruptRoll, nil
}

// Put implements Store.
func (f *Faulty) Put(key string, data []byte) error {
	if err := f.putAllowed(key); err != nil {
		return err
	}
	return f.inner.Put(key, data)
}

// Get implements Store.
func (f *Faulty) Get(key string) ([]byte, error) {
	corrupt, err := f.getCheck(key)
	if err != nil {
		return nil, err
	}
	b, err := f.inner.Get(key)
	if err == nil && corrupt && len(b) > 0 {
		// Flip a copy: b is the inner store's read-only result and may be
		// the stored object itself, so a flip in place would rot the object
		// at rest and every view of it already handed out. The copy is what
		// keeps a corrupt read transient; at-rest rot is a Put of damaged
		// bytes, never a read.
		b = bytes.Clone(b)
		b[len(b)/2] ^= 0xFF
	}
	return b, err
}

// GetRange implements Store.
func (f *Faulty) GetRange(key string, off, n int64) ([]byte, error) {
	corrupt, err := f.getCheck(key)
	if err != nil {
		return nil, err
	}
	b, err := f.inner.GetRange(key, off, n)
	if err == nil && corrupt && len(b) > 0 {
		b = bytes.Clone(b) // a copy, as in Get
		b[len(b)/2] ^= 0xFF
	}
	return b, err
}

// Head implements Store.
func (f *Faulty) Head(key string) (int64, error) {
	if _, err := f.getCheck(key); err != nil {
		return 0, err
	}
	return f.inner.Head(key)
}

// Delete implements Store.
func (f *Faulty) Delete(key string) error {
	f.mu.Lock()
	f.opCount++
	down := f.down
	f.mu.Unlock()
	if down {
		return fmt.Errorf("%w: delete %s (backend down)", ErrInjected, key)
	}
	return f.inner.Delete(key)
}

// List implements Store.
func (f *Faulty) List(prefix string) ([]string, error) {
	f.mu.Lock()
	f.opCount++
	down := f.down
	f.mu.Unlock()
	if down {
		return nil, fmt.Errorf("%w: list %s (backend down)", ErrInjected, prefix)
	}
	return f.inner.List(prefix)
}
