// Package globalindex maintains the global fingerprint index (paper
// §III-B): the mapping from every chunk fingerprint of a user to the
// container storing the chunk, persisted in Rocks-OSS (internal/kvstore).
//
// G-node uses it for exact reverse deduplication (§VI-A). A lookup goes
// straight to the engine: the memtable, then each table's key filter,
// which answers for most unique chunks without an OSS read; only a
// filter-positive probe pays a data-block read. The index keeps no state
// of its own, so opening it reads no table.
package globalindex

import (
	"encoding/binary"
	"fmt"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/kvstore"
	"slimstore/internal/oss"
)

// Options configure the index.
type Options struct {
	// KV tunes the underlying LSM store.
	KV kvstore.Options
}

// Backend is the persistent KV engine an Index runs on: a plain
// kvstore.DB for the single-node layout, or a repl.Group replicating
// the same batches across a quorum of kvstores. Its one write is a batch
// (Apply) and its one lookup a multi-get (GetMulti) — exactly the slice of
// the kvstore API the index uses, so the DB satisfies it without
// adaptation.
type Backend interface {
	GetMulti(keys [][]byte) (values [][]byte, found []bool, err error)
	Apply(b *kvstore.Batch) error
	Scan(start, end []byte, fn func(key, value []byte) bool) error
	Sync() error
	Close() error
	Stats() kvstore.Stats
}

// Index is the global fingerprint index: a fingerprint-keyed view of its
// backend, which synchronises itself. Safe for concurrent use.
type Index struct {
	db Backend
}

// Open opens the index over an OSS store.
func Open(store oss.Store, opts Options) (*Index, error) {
	if opts.KV.Prefix == "" {
		opts.KV.Prefix = "gidx/"
	}
	db, err := kvstore.Open(store, opts.KV)
	if err != nil {
		return nil, fmt.Errorf("globalindex: %w", err)
	}
	return OpenBackend(db), nil
}

// OpenBackend opens the index over an already-constructed backend (a
// replicated group, a pre-tuned kvstore).
func OpenBackend(db Backend) *Index { return &Index{db: db} }

// Entry is one index mutation: fp is (now) stored in container ID, or,
// when ID is container.Invalid, fp is stored nowhere and its entry goes.
type Entry struct {
	FP fingerprint.FP
	ID container.ID
}

// PutBatch applies a set of mutations — the index's only write — in one
// group-committed kvstore batch: one WAL record (one replicated log record
// on a repl backend), one lock acquisition. Entries apply in slice order,
// so a batch naming the same fingerprint twice resolves like the
// equivalent sequence of batches (last write wins).
func (x *Index) PutBatch(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	var b kvstore.Batch
	var v [8]byte
	for i := range entries {
		e := &entries[i]
		if e.ID == container.Invalid {
			b.Delete(e.FP[:])
			continue
		}
		binary.LittleEndian.PutUint64(v[:], uint64(e.ID))
		b.Put(e.FP[:], v[:])
	}
	if err := x.db.Apply(&b); err != nil {
		return fmt.Errorf("globalindex: put batch of %d: %w", len(entries), err)
	}
	return nil
}

// GetBatch resolves many fingerprints in one backend GetMulti — the
// index's only lookup. Results are parallel slices; found[i] is false for
// unknown fingerprints. misses counts them: callers tracking per-pass
// effectiveness (G-node stats) need the count for THIS lookup.
func (x *Index) GetBatch(fps []fingerprint.FP) (ids []container.ID, found []bool, misses int, err error) {
	ids = make([]container.ID, len(fps))
	found = make([]bool, len(fps))
	if len(fps) == 0 {
		return ids, found, 0, nil
	}
	keys := make([][]byte, len(fps))
	for i := range fps {
		keys[i] = fps[i][:]
	}
	values, hit, err := x.db.GetMulti(keys)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("globalindex: get batch of %d: %w", len(fps), err)
	}
	for i := range fps {
		if hit[i] && len(values[i]) == 8 {
			ids[i] = container.ID(binary.LittleEndian.Uint64(values[i]))
			found[i] = true
		} else {
			misses++
		}
	}
	return ids, found, misses, nil
}

// Scan visits all (fingerprint, container) pairs in fingerprint order.
func (x *Index) Scan(fn func(fp fingerprint.FP, id container.ID) bool) error {
	return x.db.Scan(nil, nil, func(k, v []byte) bool {
		if len(k) != fingerprint.Size || len(v) != 8 {
			return true
		}
		var fp fingerprint.FP
		copy(fp[:], k)
		return fn(fp, container.ID(binary.LittleEndian.Uint64(v)))
	})
}

// Stats reports index activity.
type Stats struct {
	// Entries is what the engine holds (kvstore.Stats.Entries): shadowed
	// versions and tombstones count until compaction drops them. On a
	// repl backend it also counts the group's state-key versions, one
	// per applied batch, which Scan hides.
	Entries int64
	KV      kvstore.Stats
}

// Stats returns a snapshot.
func (x *Index) Stats() Stats {
	kv := x.db.Stats()
	return Stats{Entries: kv.Entries, KV: kv}
}

// Sync is the durability point: when it returns, every prior mutation
// survives a crash. One OSS put on a plain kvstore backend, plus a flush
// when its live WAL fills one replay wave (kvstore.DB.Sync).
func (x *Index) Sync() error { return x.db.Sync() }

// Flush pushes the memtable of an LSM backend out to a table, so that
// lookups are served from tables. It is not a durability point and no
// product code calls it; benchmark/replay.go does, on a scratch index.
func (x *Index) Flush() error {
	if f, ok := x.db.(interface{ Flush() error }); ok {
		return f.Flush()
	}
	return x.db.Sync()
}

// Close closes the backend. A kvstore flushes its memtable to a table
// first, so the next Open replays no WAL (kvstore.DB.Close).
func (x *Index) Close() error { return x.db.Close() }
