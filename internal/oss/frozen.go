package oss

import (
	"fmt"
	"hash/crc32"
	"sync"
)

// Frozen wraps a Store and holds its callers to the read-only half of the
// Get/GetRange contract: it remembers every slice it returned together
// with the slice's CRC32C, and Check re-hashes them all. A caller that
// wrote through a result — or a store that changed a snapshot it had
// handed out — shows up as a changed view. It is test support that lives
// beside Faulty because the suites of five packages run over it; it keeps
// every returned slice alive, so it is not for production stores.
type Frozen struct {
	Store // inner seen through Do

	mu    sync.Mutex
	views []frozenView
	seen  map[*byte]int // first byte → longest length recorded from it
}

// frozenView is one returned slice and its CRC32C at the time.
type frozenView struct {
	key string
	b   []byte
	sum uint32
}

var frozenTable = crc32.MakeTable(crc32.Castagnoli)

// NewFrozen wraps inner.
func NewFrozen(inner Store) *Frozen {
	f := &Frozen{seen: make(map[*byte]int)}
	f.Store = With(inner, f)
	return f
}

// Do implements Layer: what a get or getrange returned is remembered. A
// sharing store returns the same view on every read of an unchanged
// object, so a view is kept once (and a shorter view from the same first
// byte is covered by the longer one).
func (f *Frozen) Do(op Op, next Store) (Op, error) {
	op, err := Do(next, op)
	b := op.Data
	if err != nil || len(b) == 0 || op.Kind == KindPut {
		return op, err
	}
	f.mu.Lock()
	if f.seen[&b[0]] < len(b) {
		f.seen[&b[0]] = len(b)
		f.views = append(f.views, frozenView{op.Key, b, crc32.Checksum(b, frozenTable)})
	}
	f.mu.Unlock()
	return op, nil
}

// Check re-hashes every view returned so far, oldest first, and names the
// key of the first one that no longer holds the bytes it was returned
// with.
func (f *Frozen) Check() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, v := range f.views {
		if got := crc32.Checksum(v.b, frozenTable); got != v.sum {
			return fmt.Errorf("oss: frozen: a %d-byte view of %s changed after it was returned (crc %08x, was %08x)",
				len(v.b), v.key, got, v.sum)
		}
	}
	return nil
}
