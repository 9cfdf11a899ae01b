// Package oss simulates the cloud Object Storage Service that SLIMSTORE's
// storage layer resides on (paper §III-B): containers, recipes, indexes and
// the LSM store all persist through this package.
//
// The deduplication and restore algorithms only observe OSS through three
// properties — per-request latency, per-channel bandwidth, and request
// counts — so the simulation models exactly those, via the Metered layer
// charging a simclock.Account. Back ends: an in-memory map (tests,
// experiments), an on-disk directory (durable local runs), and an HTTP
// client speaking to the S3-like server in this package (multi-process
// runs).
//
// Everything between a caller and a back end is a Layer: a request is an
// Op value, With(base, layers...) is the one composition, and Metered,
// Prefixed, Retry, Faulty and Frozen are each one Do. A layer may rewrite
// the op before handing it on. It may issue it to the store beneath zero
// or more times. It must not retain a put's Data past its return, and must
// not write through a result.
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
	"maps"
	"sort"
	"strings"
	"sync"

	"slimstore/internal/simclock"
)

// ErrNotFound is returned when a key does not exist.
var ErrNotFound = errors.New("oss: key not found")

// errRange marks a GetRange whose offset lies outside the object: the
// server's 416, which a client does not retry.
var errRange = errors.New("oss: range out of bounds")

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

// Clone returns a store holding the objects of s. It copies the key map
// and shares the bytes, which Put's rule — a stored value is never written
// to again — makes safe.
func (s *Mem) Clone() *Mem {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return &Mem{m: maps.Clone(s.m)}
}

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
	end, err := RangeEnd(key, off, n, int64(len(v)))
	if err != nil {
		return nil, err
	}
	return v[off:end:end], nil
}

// RangeEnd resolves GetRange's (off, n) against an object of size bytes:
// the offset one past the last byte to return, or an error when off lies
// outside the object. n < 0, and any n reaching past the end, mean "to
// the end"; n is compared with what is left, never added to off, so no
// request can make the arithmetic wrap.
func RangeEnd(key string, off, n, size int64) (int64, error) {
	if off < 0 || off > size {
		return 0, fmt.Errorf("%w: [%d,+%d) of %s (size %d)", errRange, off, n, key, size)
	}
	if n < 0 || n > size-off {
		return size, nil
	}
	return off + n, nil
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

// Metered charges every operation to a simclock.Account under a cost
// model. All SLIMSTORE components access OSS through a Metered store so
// experiments can attribute I/O time and bytes.
type Metered struct {
	Store // inner seen through Do
	costs simclock.Costs
	acct  *simclock.Account
}

// NewMetered wraps inner; acct may be nil to disable accounting. Jobs
// running in parallel charge separate accounts through separate Metered
// views of one shared store.
func NewMetered(inner Store, costs simclock.Costs, acct *simclock.Account) *Metered {
	s := &Metered{costs: costs, acct: acct}
	s.Store = With(inner, s)
	return s
}

// Do implements Layer: a put or delete is charged as a write when issued,
// anything else as a read of the bytes it returned once it succeeds.
func (s *Metered) Do(op Op, next Store) (Op, error) {
	if s.acct == nil {
		return Do(next, op)
	}
	if op.Kind == KindPut || op.Kind == KindDelete {
		s.acct.ChargeWrite(s.costs, int64(len(op.Data)))
		return Do(next, op)
	}
	op, err := Do(next, op)
	if err == nil {
		s.acct.ChargeRead(s.costs, int64(len(op.Data)))
	}
	return op, err
}
