// Package oss simulates the cloud Object Storage Service that SLIMSTORE's
// storage layer resides on (paper §III-B): containers, recipes, indexes and
// the LSM store all persist through this package.
//
// The deduplication and restore algorithms only observe OSS through three
// properties — per-request latency, per-channel bandwidth, and request
// counts — so the simulation models exactly those, via the Metered wrapper
// charging a simclock.Account. Backends: an in-memory map (tests,
// experiments), an on-disk directory (durable local runs), and an HTTP
// client speaking to the S3-like server in this package (multi-process
// runs).
//
// Object bytes cross the Store interface under two mirror-image ownership
// rules, which together let a byte travel from the store to a restore's
// writer without being copied. Put does not retain its argument (the
// caller recycles upload buffers), and what Get/GetRange return is
// read-only and a snapshot: the caller must not write through it — it may
// be the store's own memory, shared with every other reader of the key —
// and no later Put or Delete of the key changes it. Code that wants to
// alter fetched bytes clones them first (Faulty's corrupt reads, the
// chaos harness's rot operations); Frozen turns a violation into a test
// failure.
package oss

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"slimstore/internal/simclock"
)

// ErrNotFound is returned when a key does not exist.
var ErrNotFound = errors.New("oss: key not found")

// Store is the object-store abstraction. Keys are slash-separated paths.
// Implementations must be safe for concurrent use.
type Store interface {
	// Put stores an object, replacing any existing value. Implementations
	// must not retain data after Put returns (copy it, write it out, or
	// send it) — callers recycle upload buffers, e.g. the container pack
	// stage pools sealed payloads. The store contract test overwrites
	// the buffer after Put returns and reads the object back, on every
	// implementation in the module; under the other suites the recycled
	// buffer is poisoned (package poison).
	Put(key string, data []byte) error
	// Get retrieves a whole object. The result is read-only and a
	// snapshot — the mirror of Put's rule: the caller must not write
	// through it (an implementation may return its own memory, which
	// every other reader of the key shares), and a later Put or Delete
	// of the key never changes it. An implementation that returns its
	// own memory clips the capacity to the length, so an append cannot
	// land in bytes the caller does not own.
	Get(key string) ([]byte, error)
	// GetRange retrieves n bytes at offset off. n < 0 means to the end.
	// The result is read-only and a snapshot, exactly as Get's.
	GetRange(key string, off, n int64) ([]byte, error)
	// Head returns the object size without reading data.
	Head(key string) (int64, error)
	// Delete removes an object. Deleting a missing key is not an error.
	Delete(key string) error
	// List returns keys with the given prefix in lexicographic order.
	List(prefix string) ([]string, error)
}

// Mem is an in-memory Store. Put stores a private copy that nothing
// writes to again (a later Put of the key replaces the map entry, never
// the bytes), which is what lets Get and GetRange hand out
// capacity-clipped views of it instead of a copy per read.
type Mem struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: make(map[string][]byte)} }

// Put implements Store.
func (s *Mem) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}

// Get implements Store.
func (s *Mem) Get(key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return v[:len(v):len(v)], nil
}

// GetRange implements Store.
func (s *Mem) GetRange(key string, off, n int64) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if off < 0 || off > int64(len(v)) {
		return nil, fmt.Errorf("oss: range [%d,+%d) out of bounds for %s (size %d)", off, n, key, len(v))
	}
	end := int64(len(v))
	if n >= 0 && off+n < end {
		end = off + n
	}
	return v[off:end:end], nil
}

// Head implements Store.
func (s *Mem) Head(key string) (int64, error) {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return int64(len(v)), nil
}

// Delete implements Store.
func (s *Mem) Delete(key string) error {
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return nil
}

// List implements Store.
func (s *Mem) List(prefix string) ([]string, error) {
	s.mu.RLock()
	out := make([]string, 0, 16)
	for k := range s.m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out, nil
}

// TotalBytes returns the sum of object sizes; used by space-cost
// experiments (Fig 9, Fig 10c).
func (s *Mem) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var t int64
	for _, v := range s.m {
		t += int64(len(v))
	}
	return t
}

// BytesWithPrefix returns the total size of objects under a prefix.
func (s *Mem) BytesWithPrefix(prefix string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var t int64
	for k, v := range s.m {
		if strings.HasPrefix(k, prefix) {
			t += int64(len(v))
		}
	}
	return t
}

// Len returns the number of stored objects.
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Metered wraps a Store and charges every operation to a simclock.Account
// under a cost model. All SLIMSTORE components access OSS through a Metered
// store so experiments can attribute I/O time and bytes.
type Metered struct {
	inner Store
	costs simclock.Costs
	acct  *simclock.Account
}

// NewMetered wraps inner; acct may be nil to disable accounting.
func NewMetered(inner Store, costs simclock.Costs, acct *simclock.Account) *Metered {
	return &Metered{inner: inner, costs: costs, acct: acct}
}

// Account returns the account being charged.
func (s *Metered) Account() *simclock.Account { return s.acct }

// WithAccount returns a view of the same underlying store charging a
// different account. Jobs running in parallel on separate L-nodes use
// separate accounts over one shared store.
func (s *Metered) WithAccount(acct *simclock.Account) *Metered {
	return &Metered{inner: s.inner, costs: s.costs, acct: acct}
}

// Put implements Store.
func (s *Metered) Put(key string, data []byte) error {
	if s.acct != nil {
		s.acct.ChargeWrite(s.costs, int64(len(data)))
	}
	return s.inner.Put(key, data)
}

// Get implements Store.
func (s *Metered) Get(key string) ([]byte, error) {
	v, err := s.inner.Get(key)
	if err == nil && s.acct != nil {
		s.acct.ChargeRead(s.costs, int64(len(v)))
	}
	return v, err
}

// GetRange implements Store.
func (s *Metered) GetRange(key string, off, n int64) ([]byte, error) {
	v, err := s.inner.GetRange(key, off, n)
	if err == nil && s.acct != nil {
		s.acct.ChargeRead(s.costs, int64(len(v)))
	}
	return v, err
}

// Head implements Store.
func (s *Metered) Head(key string) (int64, error) {
	n, err := s.inner.Head(key)
	if err == nil && s.acct != nil {
		s.acct.ChargeRead(s.costs, 0)
	}
	return n, err
}

// Delete implements Store.
func (s *Metered) Delete(key string) error {
	if s.acct != nil {
		s.acct.ChargeWrite(s.costs, 0)
	}
	return s.inner.Delete(key)
}

// List implements Store.
func (s *Metered) List(prefix string) ([]string, error) {
	keys, err := s.inner.List(prefix)
	if err == nil && s.acct != nil {
		s.acct.ChargeRead(s.costs, 0)
	}
	return keys, err
}
