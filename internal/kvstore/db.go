// Package kvstore implements "Rocks-OSS" (paper §III-B): a log-structured
// merge-tree key-value store adapted to object storage, used as the global
// fingerprint index that G-node consults for exact reverse deduplication.
//
// The design mirrors a classic LSM engine — write-ahead log, in-memory
// skiplist memtable, immutable block-based SSTables with per-table bloom
// filters, a manifest describing the level structure, and leveled
// compaction — with every persistent structure stored as OSS objects.
// Point lookups cost at most one ranged OSS read per consulted table (the
// bloom filter and index block are cached), which is the access profile
// the paper's G-node depends on.
package kvstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"slimstore/internal/oss"
	"slimstore/internal/pipe"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("kvstore: closed")

// Options tune the LSM engine.
type Options struct {
	// Prefix is the OSS key namespace, default "kv/".
	Prefix string
	// MemtableBytes triggers a flush when the memtable grows past it.
	MemtableBytes int64
	// WALFlushBytes triggers persisting the WAL buffer as a segment.
	WALFlushBytes int
	// L0Threshold is the number of L0 tables that triggers compaction.
	L0Threshold int
	// TargetFileBytes is the compaction output table size.
	TargetFileBytes int64
	// LevelRatio is the size multiplier between levels.
	LevelRatio int
	// MaxLevels bounds the level count (L0..L<MaxLevels-1>).
	MaxLevels int
	// BlockCacheBytes bounds the decoded-block LRU cache (0 = default
	// 8 MiB, negative = disabled).
	BlockCacheBytes int64
}

func (o *Options) fillDefaults() {
	if o.Prefix == "" {
		o.Prefix = "kv/"
	}
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.WALFlushBytes <= 0 {
		o.WALFlushBytes = 256 << 10
	}
	if o.L0Threshold <= 0 {
		o.L0Threshold = 4
	}
	if o.TargetFileBytes <= 0 {
		o.TargetFileBytes = 4 << 20
	}
	if o.LevelRatio <= 0 {
		o.LevelRatio = 10
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 4
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 8 << 20
	}
}

// Stats counts engine activity.
type Stats struct {
	// Entries is what the engine holds: the live tables' counts plus the
	// memtable's. Shadowed versions and tombstones count until a
	// compaction drops them.
	Entries              int64
	Puts, Gets, Deletes  int64
	BloomNegative        int64 // table lookups short-circuited by the filter
	TableReads           int64 // data block fetches from OSS
	BlockCacheHits       int64 // data block fetches served from the cache
	Flushes, Compactions int64
	Syncs                int64 // Sync calls that put a WAL segment
	WALReplayed          int   // WAL segments replayed by Open
	TablesLive           int
	WALSegments          int
}

// manifest is the persistent level structure, stored as JSON at
// <prefix>MANIFEST and rewritten atomically by installLocked.
type manifest struct {
	NextTable uint64      `json:"next_table"`
	LastSeq   uint64      `json:"last_seq"`
	Tables    []tableMeta `json:"tables"`
}

// DB is the LSM store. All methods are safe for concurrent use.
type DB struct {
	store oss.Store
	opts  Options

	mu      sync.Mutex
	mem     *skiplist
	walBuf  []byte
	walSegs []uint64 // live WAL segment numbers, ascending
	nextWAL uint64
	seq     uint64
	man     manifest
	dead    []string // objects the in-memory manifest replaced, deleted by installLocked
	readers map[string]*tableReader
	blocks  *blockCache
	stats   Stats
	closed  bool
}

func (db *DB) tableKey(name string) string { return db.opts.Prefix + "sst/" + name }
func (db *DB) walKey(n uint64) string      { return fmt.Sprintf("%swal/%016d", db.opts.Prefix, n) }
func (db *DB) manifestKey() string         { return db.opts.Prefix + "MANIFEST" }

// Open opens or creates a DB over the given OSS store.
func Open(store oss.Store, opts Options) (*DB, error) {
	opts.fillDefaults()
	db := &DB{
		store:   store,
		opts:    opts,
		mem:     newSkiplist(1),
		readers: make(map[string]*tableReader),
	}
	if opts.BlockCacheBytes > 0 {
		db.blocks = newBlockCache(opts.BlockCacheBytes)
	}
	// Load the manifest if present.
	b, err := store.Get(db.manifestKey())
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &db.man); err != nil {
			return nil, fmt.Errorf("kvstore: parse manifest: %w", err)
		}
	case errors.Is(err, oss.ErrNotFound):
		// Fresh database.
	default:
		return nil, fmt.Errorf("kvstore: read manifest: %w", err)
	}
	db.seq = db.man.LastSeq

	// Replay surviving WAL segments (those not deleted by a completed
	// flush) into the memtable.
	walKeys, err := store.List(opts.Prefix + "wal/")
	if err != nil {
		return nil, fmt.Errorf("kvstore: list wal: %w", err)
	}
	sort.Strings(walKeys)
	segs := make([][]byte, len(walKeys))
	if err := pipe.FanOut(len(walKeys), blockFetchWidth, func(i int) (err error) {
		if segs[i], err = store.Get(walKeys[i]); err != nil {
			err = fmt.Errorf("kvstore: read wal %s: %w", walKeys[i], err)
		}
		return err
	}); err != nil {
		return nil, err
	}
	for i, k := range walKeys {
		entries, derr := decodeWALSegment(segs[i])
		if derr != nil {
			// A record torn off the end of the FINAL segment is the
			// signature of a crash mid-append: the decoded prefix is the
			// durable part, the tail was never acknowledged. Anywhere
			// else (earlier segment, or a CRC mismatch on a complete
			// record) it is corruption and must fail recovery.
			if !errors.Is(derr, errTruncated) || i != len(walKeys)-1 {
				return nil, fmt.Errorf("kvstore: replay %s: %w", k, derr)
			}
		}
		for i := range entries {
			// A record at or below the manifest's LastSeq is in a table: its
			// segment outlived the flush that covered it (a crash inside
			// the delete wave, which can leave an older segment behind a
			// newer one). Replaying it could shadow the table's newer value.
			if entries[i].seq <= db.man.LastSeq {
				continue
			}
			db.mem.insert(entries[i])
			if entries[i].seq > db.seq {
				db.seq = entries[i].seq
			}
		}
		n, perr := strconv.ParseUint(strings.TrimPrefix(k, opts.Prefix+"wal/"), 10, 64)
		if perr == nil {
			db.walSegs = append(db.walSegs, n)
			if n >= db.nextWAL {
				db.nextWAL = n + 1
			}
		}
	}
	db.stats.WALReplayed = len(db.walSegs)
	return db, nil
}

// Put stores a key-value pair: a batch of one.
func (db *DB) Put(key, value []byte) error {
	var b Batch
	b.Put(key, value)
	return db.Apply(&b)
}

// Delete removes a key (writes a tombstone): a batch of one.
func (db *DB) Delete(key []byte) error {
	var b Batch
	b.Delete(key)
	return db.Apply(&b)
}

// maxWALSegments bounds the WAL segments a Sync leaves live: at that many
// the memtable goes to a table. It is one Open read wave, so a handle that
// was never closed leaves the next Open one round of segment reads however
// small its commits were; a closed one leaves none (Close flushes).
const maxWALSegments = blockFetchWidth

// Sync is the durability point: when it returns, every prior write
// survives a crash. It costs one WAL-segment put (none when nothing is
// buffered). Tables are not part of the promise — recovery replays the
// WAL — so Sync flushes the memtable only when the live segments fill one
// replay wave.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if len(db.walBuf) > 0 {
		db.stats.Syncs++
	}
	if err := db.flushWALLocked(); err != nil {
		return err
	}
	if len(db.walSegs) < maxWALSegments {
		return nil
	}
	return db.flushLocked()
}

func (db *DB) flushWALLocked() error {
	if len(db.walBuf) == 0 {
		return nil
	}
	n := db.nextWAL
	db.nextWAL++
	if err := db.store.Put(db.walKey(n), db.walBuf); err != nil {
		return fmt.Errorf("kvstore: flush wal: %w", err)
	}
	db.walSegs = append(db.walSegs, n)
	db.walBuf = db.walBuf[:0]
	return nil
}

// Flush writes the memtable out as an L0 table now instead of when it is
// full. It manages read amplification and replay length, never
// durability (that is Sync): Compact, tests and audits call it.
func (db *DB) Flush() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.flushLocked()
}

// flushLocked writes the memtable out as an L0 table, runs the
// compactions that makes due, and installs the result.
func (db *DB) flushLocked() error {
	if err := db.flushMemLocked(); err != nil {
		return err
	}
	if err := db.maybeCompactLocked(); err != nil {
		return err
	}
	return db.installLocked()
}

// installLocked makes the tables written since the last install the
// store's truth: one manifest put naming them, then one wave deleting
// what they replace — covered WAL segments, compacted tables. Until the
// manifest lands the store still holds the state before in full (old
// manifest, its tables, every WAL segment), so a crash at any point
// reopens into one state or the other; whatever a crash inside the wave
// leaves behind is inert (Open skips WAL records a table covers, and no
// manifest names a dead table). A failed install is retried by the next.
func (db *DB) installLocked() error {
	if len(db.dead) == 0 {
		return nil // nothing was flushed or compacted
	}
	b, err := json.Marshal(&db.man)
	if err != nil {
		return fmt.Errorf("kvstore: encode manifest: %w", err)
	}
	if err := db.store.Put(db.manifestKey(), b); err != nil {
		return fmt.Errorf("kvstore: save manifest: %w", err)
	}
	if err := pipe.FanOut(len(db.dead), blockFetchWidth, func(i int) error {
		return db.store.Delete(db.dead[i])
	}); err != nil {
		return fmt.Errorf("kvstore: delete replaced objects: %w", err)
	}
	db.dead = db.dead[:0]
	return nil
}

func (db *DB) flushMemLocked() error {
	if db.mem.count == 0 {
		return nil
	}
	// Make sure everything in the memtable is durable before the table
	// write; a crash mid-flush then replays the WAL.
	if err := db.flushWALLocked(); err != nil {
		return err
	}
	b := newSSTBuilder()
	for it := db.mem.iter(); it.valid(); it.next() {
		b.add(it.cur())
	}
	meta, err := db.writeTableLocked(b, 0)
	if err != nil {
		return err
	}
	db.man.Tables = append(db.man.Tables, meta)
	db.man.LastSeq = db.seq
	// The flushed table covers every WAL segment.
	for _, n := range db.walSegs {
		db.dead = append(db.dead, db.walKey(n))
	}
	db.walSegs = db.walSegs[:0]
	db.mem = newSkiplist(int64(db.seq))
	db.stats.Flushes++
	return nil
}

func (db *DB) writeTableLocked(b *sstBuilder, level int) (tableMeta, error) {
	db.man.NextTable++
	name := fmt.Sprintf("%08d.sst", db.man.NextTable)
	obj := b.finish()
	if err := db.store.Put(db.tableKey(name), obj); err != nil {
		return tableMeta{}, fmt.Errorf("kvstore: write table: %w", err)
	}
	meta := tableMeta{
		Name:     name,
		Level:    level,
		Size:     int64(len(obj)),
		Count:    b.count,
		Smallest: append([]byte(nil), b.smallest...),
		Largest:  append([]byte(nil), b.largest...),
		MaxSeq:   b.maxSeq,
	}
	// The builder holds what openTable would read back.
	db.readers[name] = &tableReader{db: db, meta: meta, index: b.index, filter: b.filter}
	return meta, nil
}

func (db *DB) readerLocked(meta tableMeta) (*tableReader, error) {
	if r, ok := db.readers[meta.Name]; ok {
		return r, nil
	}
	r, err := db.openTable(meta)
	if err != nil {
		return nil, err
	}
	db.readers[meta.Name] = r
	return r, nil
}

// Get returns the value for key: GetMulti of one key. found is false for
// missing or deleted keys.
func (db *DB) Get(key []byte) (value []byte, found bool, err error) {
	values, ok, err := db.GetMulti([][]byte{key})
	if err != nil {
		return nil, false, err
	}
	return values[0], ok[0], nil
}

// tablesAtLocked returns the tables at a level sorted by smallest key.
func (db *DB) tablesAtLocked(level int) []tableMeta {
	var out []tableMeta
	for _, t := range db.man.Tables {
		if t.Level == level {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i].Smallest, out[j].Smallest) < 0 })
	return out
}

// ---------------------------------------------------------------------------
// Compaction.

func (db *DB) levelTarget(level int) int64 {
	t := db.opts.TargetFileBytes * int64(db.opts.LevelRatio)
	for i := 1; i < level; i++ {
		t *= int64(db.opts.LevelRatio)
	}
	return t
}

func (db *DB) maybeCompactLocked() error {
	for {
		did := false
		if len(db.tablesAtLocked(0)) >= db.opts.L0Threshold {
			if err := db.compactLevelLocked(0); err != nil {
				return err
			}
			did = true
		}
		for level := 1; level < db.opts.MaxLevels-1; level++ {
			var size int64
			for _, t := range db.tablesAtLocked(level) {
				size += t.Size
			}
			if size > db.levelTarget(level) {
				if err := db.compactLevelLocked(level); err != nil {
					return err
				}
				did = true
			}
		}
		if !did {
			return nil
		}
	}
}

// Compact forces a full compaction pass (flush + push everything down one
// level at a time until stable). Useful in tests and before space audits.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	if err := db.flushMemLocked(); err != nil {
		return err
	}
	for level := 0; level < db.opts.MaxLevels-1; level++ {
		if len(db.tablesAtLocked(level)) > 0 {
			if err := db.compactLevelLocked(level); err != nil {
				return err
			}
		}
	}
	return db.installLocked()
}

func overlaps(aMin, aMax, bMin, bMax []byte) bool {
	return bytes.Compare(aMin, bMax) <= 0 && bytes.Compare(bMin, aMax) <= 0
}

func (db *DB) compactLevelLocked(level int) error {
	outLevel := level + 1
	if outLevel >= db.opts.MaxLevels {
		return nil
	}

	// Inputs: at L0 every table (they may overlap each other); at deeper
	// levels the first table by key order.
	var inputs []tableMeta
	if level == 0 {
		inputs = db.tablesAtLocked(0)
	} else {
		ts := db.tablesAtLocked(level)
		if len(ts) == 0 {
			return nil
		}
		inputs = ts[:1]
	}
	if len(inputs) == 0 {
		return nil
	}
	min, max := inputs[0].Smallest, inputs[0].Largest
	for _, t := range inputs[1:] {
		if bytes.Compare(t.Smallest, min) < 0 {
			min = t.Smallest
		}
		if bytes.Compare(t.Largest, max) > 0 {
			max = t.Largest
		}
	}
	// Pull in overlapping outLevel tables until a fixpoint: each included
	// table can widen [min, max], which can overlap further tables. Stopping
	// early would leave outLevel tables overlapping the compaction output,
	// breaking the disjointness the level Get relies on.
	taken := make(map[string]bool, len(inputs))
	for {
		grew := false
		for _, t := range db.tablesAtLocked(outLevel) {
			if taken[t.Name] || !overlaps(min, max, t.Smallest, t.Largest) {
				continue
			}
			taken[t.Name] = true
			inputs = append(inputs, t)
			if bytes.Compare(t.Smallest, min) < 0 {
				min = t.Smallest
			}
			if bytes.Compare(t.Largest, max) > 0 {
				max = t.Largest
			}
			grew = true
		}
		if !grew {
			break
		}
	}

	// Merge all input entries in internal order.
	all, err := db.readTablesLocked(inputs)
	if err != nil {
		return err
	}
	sort.SliceStable(all, func(i, j int) bool { return internalLess(&all[i], &all[j]) })

	// Keep only the newest version of each key; drop tombstones when the
	// output is the bottom level (nothing deeper can be shadowed).
	bottom := outLevel == db.opts.MaxLevels-1 || !db.hasTablesBelowLocked(outLevel)
	var outTables []tableMeta
	b := newSSTBuilder()
	var prevKey []byte
	flushOut := func() error {
		if b.count == 0 {
			return nil
		}
		meta, err := db.writeTableLocked(b, outLevel)
		if err != nil {
			return err
		}
		outTables = append(outTables, meta)
		b = newSSTBuilder()
		return nil
	}
	for i := range all {
		e := &all[i]
		if prevKey != nil && bytes.Equal(e.key, prevKey) {
			continue // older version of the same key
		}
		prevKey = e.key
		if e.kind == kindDelete && bottom {
			continue
		}
		b.add(e)
		if int64(b.buf.Len()) >= db.opts.TargetFileBytes {
			if err := flushOut(); err != nil {
				return err
			}
		}
	}
	if err := flushOut(); err != nil {
		return err
	}

	// Drop the inputs, add the outputs; installLocked persists it.
	dead := make(map[string]bool, len(inputs))
	for _, t := range inputs {
		dead[t.Name] = true
		delete(db.readers, t.Name)
		db.blocks.drop(t.Name)
		db.dead = append(db.dead, db.tableKey(t.Name))
	}
	kept := db.man.Tables[:0]
	for _, t := range db.man.Tables {
		if !dead[t.Name] {
			kept = append(kept, t)
		}
	}
	db.man.Tables = append(kept, outTables...)
	db.stats.Compactions++
	return nil
}

func (db *DB) hasTablesBelowLocked(level int) bool {
	for _, t := range db.man.Tables {
		if t.Level > level {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------

// Scan visits live key-value pairs with start <= key < end in key order
// (end == nil means unbounded). fn returning false stops the scan.
func (db *DB) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	// Gather all sources into one merged slice. Simple and correct; scans
	// are used by offline jobs (G-node audits), not the hot path.
	var in []tableMeta
	for _, meta := range db.man.Tables {
		if end != nil && bytes.Compare(meta.Smallest, end) >= 0 {
			continue
		}
		if start != nil && bytes.Compare(meta.Largest, start) < 0 {
			continue
		}
		in = append(in, meta)
	}
	all, err := db.readTablesLocked(in)
	if err != nil {
		return err
	}
	for it := db.mem.iter(); it.valid(); it.next() {
		all = append(all, *it.cur())
	}
	sort.SliceStable(all, func(i, j int) bool { return internalLess(&all[i], &all[j]) })
	var prevKey []byte
	for i := range all {
		e := &all[i]
		if start != nil && bytes.Compare(e.key, start) < 0 {
			continue
		}
		if end != nil && bytes.Compare(e.key, end) >= 0 {
			break
		}
		if prevKey != nil && bytes.Equal(e.key, prevKey) {
			continue
		}
		prevKey = e.key
		if e.kind == kindDelete {
			continue
		}
		if !fn(e.key, e.value) {
			return nil
		}
	}
	return nil
}

// Stats returns a snapshot of engine counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.stats
	s.Entries = int64(db.mem.count)
	for _, t := range db.man.Tables {
		s.Entries += int64(t.Count)
	}
	s.TablesLive = len(db.man.Tables)
	s.WALSegments = len(db.walSegs)
	return s
}

// Close flushes the memtable, as a full one is flushed (WAL put of what is
// buffered, SST put, the compactions that makes due, MANIFEST put, one
// delete wave), and marks the DB closed, so the next Open replays no
// segment. Over an empty memtable it issues no request. A Close that fails
// leaves the DB open, with what it put durable.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	if err := db.flushLocked(); err != nil {
		return err
	}
	db.closed = true
	return nil
}
