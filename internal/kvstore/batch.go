package kvstore

import (
	"bytes"
	"sort"
)

// Batch collects puts and deletes for atomic application via DB.Apply.
// A batch is group-committed: it becomes one WAL record under a single
// CRC, so crash recovery replays it all-or-nothing, and it takes the DB
// write lock once regardless of size — the write-amplification profile
// G-node's reverse-dedup commit depends on.
//
// A Batch is not safe for concurrent mutation; build it on one goroutine
// (or behind a lock) and hand it to Apply.
type Batch struct {
	entries []entry
}

// Put queues a key-value write. Key and value are copied.
func (b *Batch) Put(key, value []byte) {
	b.entries = append(b.entries, entry{
		key:   append([]byte{}, key...),
		value: append([]byte{}, value...),
		kind:  kindPut,
	})
}

// Delete queues a tombstone for key. The key is copied.
func (b *Batch) Delete(key []byte) {
	b.entries = append(b.entries, entry{key: append([]byte{}, key...), kind: kindDelete})
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.entries) }

// Reset empties the batch for reuse.
func (b *Batch) Reset() { b.entries = b.entries[:0] }

// Clone returns a deep copy of the batch. The replication layer fans one
// decoded log record out to every replica and must extend each copy with
// the replica's own position marker without aliasing key/value bytes.
func (b *Batch) Clone() *Batch {
	c := &Batch{entries: make([]entry, len(b.entries))}
	for i := range b.entries {
		e := &b.entries[i]
		c.entries[i] = entry{
			key:   append([]byte{}, e.key...),
			value: append([]byte{}, e.value...),
			kind:  e.kind,
		}
	}
	return c
}

// Apply commits the batch: one lock acquisition, one WAL record, one
// memtable insertion pass — the engine's only write. Entries receive
// contiguous sequence numbers in batch order, so a batch that writes the
// same key twice resolves exactly like the equivalent sequence of one-entry
// batches (last write wins). An empty or nil batch is a no-op.
func (db *DB) Apply(b *Batch) error {
	if b == nil || len(b.entries) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	base := db.seq + 1
	db.seq += uint64(len(b.entries))
	db.walBuf = appendRecord(db.walBuf, walBatchKind, b.entries, base)
	for i := range b.entries {
		e := b.entries[i]
		e.seq = base + uint64(i)
		db.mem.insert(e)
		if e.kind == kindPut {
			db.stats.Puts++
		} else {
			db.stats.Deletes++
		}
	}
	if len(db.walBuf) >= db.opts.WALFlushBytes {
		if err := db.flushWALLocked(); err != nil {
			return err
		}
	}
	if db.mem.bytes >= db.opts.MemtableBytes {
		return db.flushLocked()
	}
	return nil
}

// keyRef tracks one GetMulti key and its position in the caller's slice
// while it remains unresolved.
type keyRef struct {
	key []byte
	pos int
}

// GetMulti looks up many keys under one lock acquisition — the engine's
// only lookup. It returns parallel slices: values[i]/found[i] answer
// keys[i], with found[i] false for missing or deleted keys. Keys are probed
// memtable-first, then L0 newest-first, then the disjoint deeper levels;
// unresolved keys are sorted so neighbouring keys land in the same SSTable
// data block and each needed block is fetched exactly once per table,
// amortizing OSS reads that one-key lookups would repeat. Bloom probes stay
// per key, so filter statistics do not depend on how keys are grouped.
func (db *DB) GetMulti(keys [][]byte) (values [][]byte, found []bool, err error) {
	values = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	if len(keys) == 0 {
		return values, found, nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, nil, ErrClosed
	}
	db.stats.Gets += int64(len(keys))

	pending := make([]keyRef, 0, len(keys))
	for i, k := range keys {
		if e, ok := db.mem.get(k); ok {
			if e.kind != kindDelete {
				values[i] = append([]byte{}, e.value...)
				found[i] = true
			}
			continue // resolved, even by tombstone
		}
		pending = append(pending, keyRef{key: k, pos: i})
	}
	sort.Slice(pending, func(i, j int) bool { return bytes.Compare(pending[i].key, pending[j].key) < 0 })

	// L0 tables may overlap; probe newest-first and drop resolved keys
	// (including tombstones) so older tables cannot shadow newer versions.
	l0 := db.tablesAtLocked(0)
	sort.Slice(l0, func(i, j int) bool { return l0[i].MaxSeq > l0[j].MaxSeq })
	for _, meta := range l0 {
		if len(pending) == 0 {
			break
		}
		pending, err = db.tableGetMultiLocked(meta, pending, values, found)
		if err != nil {
			return nil, nil, err
		}
	}

	// Deeper levels hold disjoint tables: each key maps to at most one.
	for level := 1; level < db.opts.MaxLevels && len(pending) > 0; level++ {
		tables := db.tablesAtLocked(level)
		if len(tables) == 0 {
			continue
		}
		groups := make(map[int][]keyRef)
		var next []keyRef
		for _, kr := range pending {
			i := sort.Search(len(tables), func(i int) bool {
				return bytes.Compare(tables[i].Largest, kr.key) >= 0
			})
			if i < len(tables) && bytes.Compare(tables[i].Smallest, kr.key) <= 0 {
				groups[i] = append(groups[i], kr)
			} else {
				next = append(next, kr)
			}
		}
		for i := range tables {
			g := groups[i]
			if len(g) == 0 {
				continue
			}
			rest, err := db.tableGetMultiLocked(tables[i], g, values, found)
			if err != nil {
				return nil, nil, err
			}
			next = append(next, rest...)
		}
		pending = next
	}
	return values, found, nil
}

// tableGetMultiLocked probes one table for refs, filling values/found for
// the keys it resolves (tombstones resolve with found left false) and
// returning the refs this table cannot answer. Bloom probes stay per-key;
// block fetches are grouped so each data block is read at most once, and
// the blocks the cache does not hold are fetched concurrently, one window
// of blockFetchWidth ahead of the walk — one round trip per window instead
// of one per block, and at most a window of decoded blocks held outside
// the cache.
func (db *DB) tableGetMultiLocked(meta tableMeta, refs []keyRef, values [][]byte, found []bool) ([]keyRef, error) {
	r, err := db.readerLocked(meta)
	if err != nil {
		return nil, err
	}
	var miss []keyRef
	byBlock := make(map[int][]keyRef)
	var order []int
	for _, kr := range refs {
		if !r.filter.mayContain(kr.key) {
			db.stats.BloomNegative++
			miss = append(miss, kr)
			continue
		}
		bi := r.blockFor(kr.key)
		if bi < 0 {
			miss = append(miss, kr)
			continue
		}
		if _, ok := byBlock[bi]; !ok {
			order = append(order, bi)
		}
		byBlock[bi] = append(byBlock[bi], kr)
	}
	var fetched map[int][]entry
	ahead := 0 // order[:ahead] is covered by the fetch windows so far
	for pos, bi := range order {
		if pos == ahead {
			if fetched, ahead, err = r.fetchBlocks(order, pos); err != nil {
				return nil, err
			}
		}
		entries, err := r.blockEntries(bi, fetched)
		if err != nil {
			return nil, err
		}
		for _, kr := range byBlock[bi] {
			// searchFrom walks past bi when the key's version run spans a
			// block boundary; follow-up blocks come from the block cache.
			e, ok, err := r.searchFrom(bi, entries, kr.key, fetched)
			if err != nil {
				return nil, err
			}
			if !ok {
				miss = append(miss, kr)
				continue
			}
			if e.kind != kindDelete {
				values[kr.pos] = e.value
				found[kr.pos] = true
			}
		}
	}
	return miss, nil
}
