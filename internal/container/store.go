package container

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"slimstore/internal/ec"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/poison"
)

// Prefix is the OSS key namespace for containers.
const Prefix = "containers/"

// QuarantinePrefix is where Quarantine moves corrupt container objects:
// out of the live namespace (so scans and restores stop tripping over
// them) but preserved for forensics.
const QuarantinePrefix = "quarantine/"

func dataKey(id ID) string { return Prefix + id.String() + ".data" }
func metaKey(id ID) string { return Prefix + id.String() + ".meta" }

// DataKey and MetaKey expose the OSS keys of a container's two objects;
// the erasure-coding tier and the scrub repair pass address stripes by
// these keys.
func DataKey(id ID) string { return dataKey(id) }

// MetaKey is the metadata-object counterpart of DataKey.
func MetaKey(id ID) string { return metaKey(id) }

// Store reads and writes containers on OSS and allocates container IDs.
// It is safe for concurrent use by multiple jobs. Views created with View
// share the ID allocator and metadata cache while directing I/O through a
// different (typically per-job metered) OSS store.
type Store struct {
	oss    oss.Store
	shared *storeShared
	gate   chan struct{} // one token per data-object read in flight; nil = ungated (see Gated)
}

// storeShared is the state common to all views of one container store.
type storeShared struct {
	capacity int
	nextID   atomic.Uint64

	mu        sync.Mutex
	metaCache map[ID]*Meta // small write-through cache of container metadata
	metaCap   int
	inval     []func(ID) // invalidation subscribers (shared restore cache)

	// bufPool recycles container payload buffers between builders and the
	// pack stage. Buffers are sized capacity+FooterSize so Write can seal
	// the data-object footer in place without the EncodeData copy.
	bufPool sync.Pool
}

// getBuf returns an empty payload buffer with room for the footer.
func (sh *storeShared) getBuf() []byte {
	if v := sh.bufPool.Get(); v != nil {
		b := v.([]byte)[:0]
		poison.Take(b)
		return b
	}
	return make([]byte, 0, sh.capacity+FooterSize)
}

// putBuf recycles a payload buffer. Foreign buffers (a chunk larger than
// the capacity forced a reallocation, or the container was built outside
// this store's builder) are left to the garbage collector. In a test
// binary the buffer is poisoned first and a second put of it panics
// (package poison).
func (sh *storeShared) putBuf(b []byte) {
	if cap(b) != sh.capacity+FooterSize {
		return
	}
	poison.Put(b)
	sh.bufPool.Put(b[:0]) //nolint — []byte in a Pool boxes once per put; containers are MBs, the box is bytes
}

// Release returns a written container's payload buffer to the store's
// pool. Callers must not touch the container's Data afterwards; the
// pack stage calls this after the durable write, the synchronous builder
// path after Write returns. The OSS Put contract (oss.Store) guarantees
// no implementation retains the buffer. It is for containers a Builder
// of this store filled: a fetched container's payload is read-only
// memory the pool must never hand to a builder, and — its capacity being
// clipped to its length — never matches the pool's buffer size.
func (s *Store) Release(c *Container) {
	if c == nil || c.Data == nil {
		return
	}
	s.shared.putBuf(c.Data)
	c.Data = nil
}

// OnInvalidate registers fn to run after any operation that changes or
// drops a container's objects (Write, WriteMeta, PutRaw, Quarantine,
// Delete, InvalidateMeta) — the hook the node-wide shared restore cache
// uses to drop stale entries. Callbacks run outside the store's internal
// lock and must not call back into the store. Register at open time,
// before the store sees concurrent use.
func (s *Store) OnInvalidate(fn func(ID)) {
	s.shared.mu.Lock()
	s.shared.inval = append(s.shared.inval, fn)
	s.shared.mu.Unlock()
}

// notifyInvalidate fans one container's change out to the subscribers,
// outside the store lock.
func (s *Store) notifyInvalidate(id ID) {
	s.shared.mu.Lock()
	fns := s.shared.inval
	s.shared.mu.Unlock()
	for _, fn := range fns {
		fn(id)
	}
}

// NewStore opens a container store over the given OSS store. capacity <= 0
// selects DefaultCapacity. The ID allocator resumes after the largest
// existing container.
func NewStore(s oss.Store, capacity int) (*Store, error) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	cs := &Store{oss: s, shared: &storeShared{capacity: capacity, metaCache: make(map[ID]*Meta), metaCap: 1024}}
	keys, err := s.List(Prefix)
	if err != nil {
		return nil, fmt.Errorf("container: scan existing: %w", err)
	}
	var max uint64
	for _, k := range keys {
		id, ok := parseKey(k)
		if ok && uint64(id) > max {
			max = uint64(id)
		}
	}
	cs.shared.nextID.Store(max)
	return cs, nil
}

// View returns a store sharing this store's ID allocator and metadata
// cache but performing I/O through o (e.g. a per-job metered wrapper).
func (s *Store) View(o oss.Store) *Store {
	return &Store{oss: o, shared: s.shared}
}

// Gated returns a view of s that keeps at most n of its data-object reads
// (Read, ReadSpans) in flight, whichever goroutines issue them, and runs
// the requests of one ReadSpans up to n at a time. A token is held across
// exactly one object-store call and never while waiting for another. n < 1
// returns s: an ungated view issues a read's requests one after another on
// the caller.
func (s *Store) Gated(n int) *Store {
	if n < 1 {
		return s
	}
	return &Store{oss: s.oss, shared: s.shared, gate: make(chan struct{}, n)}
}

// enter takes one of the view's read tokens and leave returns it; both are
// no-ops on an ungated view.
func (s *Store) enter() {
	if s.gate != nil {
		s.gate <- struct{}{}
	}
}

func (s *Store) leave() {
	if s.gate != nil {
		<-s.gate
	}
}

// parseKey extracts the container ID from an OSS key.
func parseKey(key string) (ID, bool) {
	name := strings.TrimPrefix(key, Prefix)
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	if !strings.HasPrefix(name, "C") {
		return Invalid, false
	}
	v, err := strconv.ParseUint(name[1:], 16, 64)
	if err != nil {
		return Invalid, false
	}
	return ID(v), true
}

// AllocateID returns a fresh container ID.
func (s *Store) AllocateID() ID { return ID(s.shared.nextID.Add(1)) }

// Seal finalises a container for writing: stamps the payload size and every
// chunk's checksum. Write calls it implicitly; the journaled-rewrite path
// calls it before encoding.
func (c *Container) Seal() error {
	_, _, err := c.seal()
	return err
}

// seal is Seal, and on the same walk the footer's whole-payload CRC32C when
// the chunks tile the payload in order (tiled; every builder container):
// the running sum is extended by each chunk right after the chunk's own sum,
// while its bytes are still in cache, so Write does not read the payload a
// second time. Both sums are taken from the payload buffer.
func (c *Container) seal() (payloadSum uint32, tiled bool, err error) {
	c.Meta.DataSize = uint32(len(c.Data))
	tiled = true
	var next uint32 // where the next chunk starts if the chunks tile
	for i := range c.Meta.Chunks {
		cm := &c.Meta.Chunks[i]
		data, err := c.ChunkData(cm)
		if err != nil {
			return 0, false, fmt.Errorf("container %s: seal: %w", c.Meta.ID, err)
		}
		cm.Sum = ChecksumOf(data)
		if tiled = tiled && cm.Offset == next; tiled {
			payloadSum = crc32.Update(payloadSum, castagnoli, data)
			next += cm.Size
		}
	}
	c.Meta.buildFindIndex()
	return payloadSum, tiled && next == c.Meta.DataSize, nil
}

// Write persists a container (data then metadata, so a metadata object
// never references missing data). Chunk checksums are recomputed from the
// payload.
// Write does not retain c or its payload: callers (the pack pool) hand
// the container straight back to Release, which recycles c.Data.
func (s *Store) Write(c *Container) error {
	if c.Meta.ID == Invalid {
		return fmt.Errorf("container: write with invalid ID")
	}
	sum, tiled, err := c.seal()
	if err != nil {
		return err
	}
	// Seal the data object in place when the payload buffer has footer
	// headroom (builder buffers always do): the footer is appended into
	// the same allocation and the payload view restored afterwards, so
	// the hot path writes containers with zero payload copies.
	payload := c.Data
	var enc []byte
	if cap(payload) >= len(payload)+FooterSize {
		if !tiled {
			sum = ChecksumOf(payload)
		}
		enc = appendFooter(payload, sum)
	} else {
		enc = EncodeData(payload)
	}
	if err := s.oss.Put(dataKey(c.Meta.ID), enc); err != nil {
		return fmt.Errorf("container %s: write data: %w", c.Meta.ID, err)
	}
	c.Data = payload
	if err := s.oss.Put(metaKey(c.Meta.ID), EncodeMeta(&c.Meta)); err != nil {
		return fmt.Errorf("container %s: write meta: %w", c.Meta.ID, err)
	}
	s.cacheMeta(&c.Meta)
	s.notifyInvalidate(c.Meta.ID)
	return nil
}

// Read fetches a full container (metadata + payload) with one request and
// verifies every live chunk against its checksum: ReadSpans with no spans.
func (s *Store) Read(id ID) (*Container, error) { return s.ReadSpans(id, nil) }

// ReadRaw fetches a container without chunk verification — the scrub path,
// which wants the damaged payload to salvage intact chunks from. footerOK
// reports the data object's whole-payload checksum.
// The result is read-only, as Read's.
func (s *Store) ReadRaw(id ID) (c *Container, footerOK bool, err error) {
	m, err := s.ReadMeta(id)
	if err != nil {
		return nil, false, err
	}
	raw, err := s.oss.Get(dataKey(id))
	if err != nil {
		return nil, false, fmt.Errorf("container %s: read data: %w", id, err)
	}
	payload, footerOK := SplitData(m, raw)
	return &Container{Meta: *m, Data: payload}, footerOK, nil
}

// GetRawData fetches a container's encoded data object verbatim (footer
// included) — the journal replay path, which compares it against a
// journaled checksum without interpreting it.
func (s *Store) GetRawData(id ID) ([]byte, error) {
	return s.oss.Get(dataKey(id))
}

// PutRaw writes pre-encoded objects for a container — the crash-recovery
// path, which replays byte-exact journaled state. Either argument may be
// nil to leave that object untouched. The metadata cache entry is dropped
// so subsequent reads see the new state.
func (s *Store) PutRaw(id ID, encData, encMeta []byte) error {
	if encData != nil {
		if err := s.oss.Put(dataKey(id), encData); err != nil {
			return fmt.Errorf("container %s: put raw data: %w", id, err)
		}
	}
	if encMeta != nil {
		if err := s.oss.Put(metaKey(id), encMeta); err != nil {
			return fmt.Errorf("container %s: put raw meta: %w", id, err)
		}
	}
	s.shared.mu.Lock()
	delete(s.shared.metaCache, id)
	s.shared.mu.Unlock()
	s.notifyInvalidate(id)
	return nil
}

// ReadMeta fetches container metadata, through the cache.
func (s *Store) ReadMeta(id ID) (*Meta, error) {
	s.shared.mu.Lock()
	if m, ok := s.shared.metaCache[id]; ok {
		s.shared.mu.Unlock()
		return m, nil
	}
	s.shared.mu.Unlock()
	b, err := s.oss.Get(metaKey(id))
	if err != nil {
		return nil, fmt.Errorf("container %s: read meta: %w", id, err)
	}
	m, err := DecodeMeta(b)
	if err != nil {
		return nil, fmt.Errorf("container %s: %w", id, err)
	}
	s.cacheMeta(m)
	return m, nil
}

// WriteMeta rewrites only the metadata object (used by reverse dedup to
// mark chunks deleted without touching payload).
func (s *Store) WriteMeta(m *Meta) error {
	if err := s.oss.Put(metaKey(m.ID), EncodeMeta(m)); err != nil {
		return fmt.Errorf("container %s: write meta: %w", m.ID, err)
	}
	s.cacheMeta(m)
	s.notifyInvalidate(m.ID)
	return nil
}

// ReadChunk fetches a single chunk via a ranged read; cheaper than Read
// when only one chunk of a cold container is needed (old-version restore
// after reverse deduplication). It is ReadSpans of the one span that is the
// chunk Meta.Find would return.
func (s *Store) ReadChunk(id ID, fp fingerprint.FP) ([]byte, error) {
	m, err := s.ReadMeta(id)
	if err != nil {
		return nil, err
	}
	for i := range m.Chunks {
		if cm := &m.Chunks[i]; cm.FP == fp {
			c, err := s.ReadSpans(id, []Span{{Off: int64(cm.Offset), Len: int64(cm.Size), Chunks: []int{i}}})
			if err != nil {
				return nil, err
			}
			return c.ChunkData(cm)
		}
	}
	return nil, fmt.Errorf("container %s: chunk %s not found", id, fp.Short())
}

// Quarantine moves a container's objects under QuarantinePrefix and drops
// them from the live namespace. Missing objects are tolerated (a corrupt
// container may have lost either half), and so is an unreadable half —
// e.g. an erasure-coded stripe with more than M shards lost, which cannot
// be materialised for preservation; the live key is still dropped so the
// namespace heals. The payload, where readable, is preserved verbatim for
// forensics; nothing reads quarantined keys.
func (s *Store) Quarantine(id ID) error {
	for _, suffix := range []string{".data", ".meta"} {
		key := Prefix + id.String() + suffix
		raw, err := s.oss.Get(key)
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) {
				continue
			}
			if errors.Is(err, ec.ErrInsufficient) {
				if err := s.oss.Delete(key); err != nil {
					return fmt.Errorf("container %s: quarantine delete: %w", id, err)
				}
				continue
			}
			return fmt.Errorf("container %s: quarantine read: %w", id, err)
		}
		if err := s.oss.Put(QuarantinePrefix+id.String()+suffix, raw); err != nil {
			return fmt.Errorf("container %s: quarantine write: %w", id, err)
		}
		if err := s.oss.Delete(key); err != nil {
			return fmt.Errorf("container %s: quarantine delete: %w", id, err)
		}
	}
	s.shared.mu.Lock()
	delete(s.shared.metaCache, id)
	s.shared.mu.Unlock()
	s.notifyInvalidate(id)
	return nil
}

// Delete removes a container's data and metadata.
func (s *Store) Delete(id ID) error {
	if err := s.oss.Delete(dataKey(id)); err != nil {
		return fmt.Errorf("container %s: delete data: %w", id, err)
	}
	if err := s.oss.Delete(metaKey(id)); err != nil {
		return fmt.Errorf("container %s: delete meta: %w", id, err)
	}
	s.shared.mu.Lock()
	delete(s.shared.metaCache, id)
	s.shared.mu.Unlock()
	s.notifyInvalidate(id)
	return nil
}

// List returns all container IDs in ascending order: those whose
// metadata object exists.
func (s *Store) List() ([]ID, error) {
	live, _, err := s.Scan()
	return live, err
}

// Scan lists the container namespace once, splitting it into containers
// (a metadata object exists), as List returns them, and orphaned payloads:
// a data object with no metadata beside it, what a crash between Write's
// two puts leaves.
func (s *Store) Scan() (live, orphans []ID, err error) {
	keys, err := s.oss.List(Prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("container: list: %w", err)
	}
	hasMeta := make(map[ID]bool, len(keys)/2)
	var data []ID
	for _, k := range keys {
		id, ok := parseKey(k)
		switch {
		case !ok:
		case strings.HasSuffix(k, ".meta"):
			if !hasMeta[id] {
				hasMeta[id] = true
				live = append(live, id)
			}
		case strings.HasSuffix(k, ".data"):
			data = append(data, id)
		}
	}
	for _, id := range data {
		if !hasMeta[id] {
			orphans = append(orphans, id)
		}
	}
	return live, orphans, nil
}

// DropOrphan deletes an orphaned payload Scan returned and reports its
// size. The caller excludes every writer (FullSweep stops the world), so
// no Write is between its two puts.
func (s *Store) DropOrphan(id ID) (int64, error) {
	size, err := s.oss.Head(dataKey(id))
	if err != nil {
		return 0, fmt.Errorf("container %s: orphan: %w", id, err)
	}
	if err := s.oss.Delete(dataKey(id)); err != nil {
		return 0, fmt.Errorf("container %s: drop orphan: %w", id, err)
	}
	return size, nil
}

// InvalidateMeta drops a cached metadata entry (e.g. after an external
// writer rewrote the container).
func (s *Store) InvalidateMeta(id ID) {
	s.shared.mu.Lock()
	delete(s.shared.metaCache, id)
	s.shared.mu.Unlock()
	s.notifyInvalidate(id)
}

func (s *Store) cacheMeta(m *Meta) {
	sh := s.shared
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.metaCache) >= sh.metaCap {
		// Random eviction of one entry keeps the cache bounded without an
		// LRU list; metadata is tiny and re-fetchable.
		for k := range sh.metaCache {
			delete(sh.metaCache, k)
			break
		}
	}
	cp := *m
	cp.Chunks = append([]ChunkMeta(nil), m.Chunks...)
	sh.metaCache[m.ID] = &cp
}

// ---------------------------------------------------------------------------

// Builder accumulates chunks into a container until it is full. It is
// safe for concurrent use: Add/Flush hold an internal mutex, and a filled
// container is sealed atomically — it is detached from the builder under
// the lock before any worker sees it, so no chunk can land in a container
// that is already being encoded. Each backup job typically owns one
// builder; with a sink (see NewBuilderAsync) filled containers are handed
// to a PackPool instead of being written inline.
type Builder struct {
	store *Store
	mu    sync.Mutex
	cur   *Container
	sink  func(*Container) error // nil writes synchronously through store
}

// NewBuilder returns a builder writing through the given store.
func NewBuilder(store *Store) *Builder { return &Builder{store: store} }

// NewBuilderAsync returns a builder that hands filled containers to pool
// instead of writing them inline. The caller must Close the pool (after a
// final Flush) to wait for outstanding writes and collect errors.
func NewBuilderAsync(store *Store, pool *PackPool) *Builder {
	return &Builder{store: store, sink: func(c *Container) error { pool.Write(c); return nil }}
}

func (b *Builder) ensure() {
	if b.cur == nil {
		b.cur = &Container{
			Meta: Meta{ID: b.store.AllocateID()},
			Data: b.store.shared.getBuf(),
		}
	}
}

// Add appends a chunk, flushing first if it would overflow the capacity.
// It returns the container ID the chunk was stored in.
func (b *Builder) Add(fp fingerprint.FP, data []byte) (ID, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ensure()
	if len(b.cur.Data)+len(data) > b.store.shared.capacity && len(b.cur.Data) > 0 {
		if err := b.flushLocked(); err != nil {
			return Invalid, err
		}
		b.ensure()
	}
	b.cur.Meta.Chunks = append(b.cur.Meta.Chunks, ChunkMeta{
		FP:     fp,
		Offset: uint32(len(b.cur.Data)),
		Size:   uint32(len(data)),
	})
	b.cur.Data = append(b.cur.Data, data...)
	b.cur.Meta.DataSize = uint32(len(b.cur.Data))
	return b.cur.Meta.ID, nil
}

// Flush persists (or hands to the sink) the open container, if any. With
// a sink, durability is only established once the pool is closed.
func (b *Builder) Flush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushLocked()
}

func (b *Builder) flushLocked() error {
	if b.cur == nil || len(b.cur.Meta.Chunks) == 0 {
		b.store.Release(b.cur)
		b.cur = nil
		return nil
	}
	c := b.cur
	b.cur = nil // detach before anything else can see or mutate it
	if b.sink != nil {
		return b.sink(c)
	}
	err := b.store.Write(c)
	b.store.Release(c)
	return err
}
