package container

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"slimstore/internal/ec"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/pipe"
	"slimstore/internal/poison"
)

// Prefix is the OSS key namespace for containers.
const Prefix = "containers/"

// QuarantinePrefix is where Quarantine moves corrupt container objects:
// out of the live namespace (so scans and restores stop tripping over
// them) but preserved for forensics.
const QuarantinePrefix = "quarantine/"

// DataKey is the OSS key of a data object, stored under the payload ID a
// meta names (Meta.Payload): a payload's first part, or all of it.
func DataKey(payload ID) string { return Prefix + payload.String() + ".data" }

// PartKey is the OSS key of part i of a payload: DataKey for the first.
// Every part key ends in ".data", which the redundancy tier stripes.
func PartKey(payload ID, i int) string {
	if i == 0 {
		return DataKey(payload)
	}
	return Prefix + payload.String() + "." + strconv.Itoa(i) + ".data"
}

// DataKeys returns the keys of every part of the payload m names.
func (m *Meta) DataKeys() []string {
	keys := make([]string, m.NumParts())
	for i := range keys {
		keys[i] = PartKey(m.Payload, i)
	}
	return keys
}

// MetaKey is the OSS key of container id's metadata object.
func MetaKey(id ID) string { return Prefix + id.String() + ".meta" }

// Store reads and writes containers on OSS and allocates container IDs.
// It is safe for concurrent use by multiple jobs. Views created with View
// share the ID allocator and metadata cache while directing I/O through a
// different (typically per-job metered) OSS store.
type Store struct {
	oss    oss.Store
	shared *storeShared
	gate   *gate // the data-object requests in flight; nil = ungated (see Gated)
}

// storeShared is the state common to all views of one container store.
type storeShared struct {
	capacity int
	partLB   int64 // WritePayload's piece-count unit, L·B_w (SplitWrites); 0 = one object
	nextID   atomic.Uint64

	mu        sync.Mutex
	metaCache map[ID]*Meta // small write-through cache of container metadata
	metaCap   int
	metaGen   uint64         // meta writes and invalidations so far (ReadMeta)
	inval     []func(ID)     // invalidation subscribers (shared restore cache)
	updating  [64]sync.Mutex // UpdateMeta's, striped by container ID

	// bufPool recycles container payload buffers between builders and the
	// pack stage. Buffers are sized capacity+FooterSize so WritePayload
	// appends the data-object footer in place.
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
// drops a container's objects (Write, WriteMeta, Quarantine, Delete,
// InvalidateMeta) — the hook the node-wide shared restore cache
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
// selects DefaultCapacity. The ID allocator resumes after the largest ID
// any object in the live or the quarantine namespace is named by, so no
// key is written twice.
func NewStore(s oss.Store, capacity int) (*Store, error) {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	cs := &Store{oss: s, shared: &storeShared{capacity: capacity, metaCache: make(map[ID]*Meta), metaCap: 1024}}
	var listed [2][]string
	if err := pipe.FanOut(2, 2, func(i int) (err error) {
		listed[i], err = s.List([]string{Prefix, QuarantinePrefix}[i])
		return err
	}); err != nil {
		return nil, fmt.Errorf("container: scan existing: %w", err)
	}
	var max uint64
	for _, k := range append(listed[0], listed[1]...) {
		id, ok := parseKey(k)
		if ok && uint64(id) > max {
			max = uint64(id)
		}
	}
	cs.shared.nextID.Store(max)
	return cs, nil
}

// SplitWrites makes WritePayload over s put every payload in parts by Pieces
// at lb = L·B_w. Call it at open time, before the store sees concurrent use.
func (s *Store) SplitWrites(lb int64) { s.shared.partLB = lb }

// View returns a store sharing this store's ID allocator and metadata
// cache but performing I/O through o (e.g. a per-job metered wrapper).
func (s *Store) View(o oss.Store) *Store {
	return &Store{oss: o, shared: s.shared}
}

// Gated returns a view of s that keeps at most n of its data-object
// requests (Read, ReadSpans) in flight, whichever goroutines issue them, and
// runs the requests of one ReadSpans up to n at a time. A token is held
// across exactly one object-store call and never while waiting for another;
// a token that falls free goes to the longest request waiting, ties in
// arrival order (DESIGN.md §10). n < 1 returns s: an ungated view issues a
// read's requests one after another on the caller.
func (s *Store) Gated(n int) *Store {
	if n < 1 {
		return s
	}
	return &Store{oss: s.oss, shared: s.shared, gate: &gate{width: n, free: n}}
}

// gate is a Gated view's tokens. Handing a free one to the longest waiting
// request is longest-processing-time-first list scheduling: whatever a job
// has queued — the window of a restore's prefetcher, a G-node pass's pool —
// its long reads start first and its short ones fill in beside them, so the
// channels run dry together instead of one long read setting the tail.
// Which requests run is the callers' business; the gate orders them only.
type gate struct {
	width int

	mu      sync.Mutex
	free    int
	arrived uint64
	waiting waiters
}

// waiter is one request waiting for a token: n bytes, the arrived-th to
// wait, let in by closing ready.
type waiter struct {
	n     int64
	at    uint64
	ready chan struct{}
}

// waiters is a heap of waiting requests, longest first, then earliest.
type waiters []*waiter

func (h waiters) Len() int { return len(h) }
func (h waiters) Less(i, j int) bool {
	if h[i].n != h[j].n {
		return h[i].n > h[j].n
	}
	return h[i].at < h[j].at
}
func (h waiters) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiters) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waiters) Pop() any {
	old := *h
	w := old[len(old)-1]
	*h = old[:len(old)-1]
	return w
}

// enter takes one of the view's tokens for a request of n bytes, waiting
// its turn if none is free; leave returns it. Both are no-ops on an
// ungated view.
func (s *Store) enter(n int64) {
	g := s.gate
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.free > 0 {
		g.free--
		g.mu.Unlock()
		return
	}
	w := &waiter{n: n, at: g.arrived, ready: make(chan struct{})}
	g.arrived++
	heap.Push(&g.waiting, w)
	g.mu.Unlock()
	<-w.ready
}

func (s *Store) leave() {
	g := s.gate
	if g == nil {
		return
	}
	g.mu.Lock()
	if len(g.waiting) > 0 {
		close(heap.Pop(&g.waiting).(*waiter).ready) // the token passes on
	} else {
		g.free++
	}
	g.mu.Unlock()
}

// width is how many requests the view runs at once: 0 when ungated.
func (s *Store) width() int {
	if s.gate == nil {
		return 0
	}
	return s.gate.width
}

// parseKey extracts the ID from an OSS key of either namespace.
func parseKey(key string) (ID, bool) {
	name := strings.TrimPrefix(strings.TrimPrefix(key, Prefix), QuarantinePrefix)
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

// AllocateID returns a fresh ID, for a container or a payload.
func (s *Store) AllocateID() ID { return s.AllocateIDs(1) }

// AllocateIDs reserves n consecutive fresh IDs and returns the first: a
// fan-out whose i-th item takes the i-th writes the same keys whatever
// order its workers run in.
func (s *Store) AllocateIDs(n int) ID { return ID(s.shared.nextID.Add(uint64(n))) - ID(n) + 1 }

// seal finalises a container for writing — stamps the payload size and every
// chunk's checksum — and takes, on the same walk, the footer's whole-payload
// CRC32C when the chunks tile the payload in order (tiled; every builder
// container): the running sum is extended by each chunk right after the
// chunk's own sum, while its bytes are still in cache, so Write does not read
// the payload a second time. Both sums are taken from the payload buffer.
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

// Write persists a new container, its payload under its own ID: WritePayload,
// then WriteMeta, so a meta never names a payload that is not there.
// Write does not retain c or its payload: the synchronous Builder hands the
// container straight back to Release, which recycles c.Data.
func (s *Store) Write(c *Container) error {
	c.Meta.Payload = c.Meta.ID
	if err := s.WritePayload(c); err != nil {
		return err
	}
	return s.WriteMeta(&c.Meta)
}

// maxParts caps the parts of a payload: a third part saves a sixth of a
// full container's put and costs every later whole read (restore, scrub,
// G-node pass) and the deletion a request, which measured more than the
// backup time it bought.
const maxParts = 2

// WritePayload seals c and puts its data object under c.Meta.Payload, an ID
// no object is stored under yet, whoever writes it: as min(Pieces(size,
// L·B_w), maxParts) parts cut on chunk boundaries, recorded in c.Meta.Parts
// and put side by side — one object on a store SplitWrites never set. Chunk
// checksums are recomputed from the payload. The footer is appended in place
// when c.Data has room for it (builder and rewrite buffers do), so the
// payload is not copied. Nothing reads the payload until a meta that names
// it is written.
func (s *Store) WritePayload(c *Container) error {
	if c.Meta.ID == Invalid || c.Meta.Payload == Invalid {
		return fmt.Errorf("container: write with invalid ID %s or payload %s", c.Meta.ID, c.Meta.Payload)
	}
	sum, tiled, err := c.seal()
	if err != nil {
		return err
	}
	if !tiled {
		sum = ChecksumOf(c.Data)
	}
	enc := appendFooter(c.Data, sum)
	m := &c.Meta
	m.Parts = nil
	size := int64(len(c.Data))
	for _, sp := range CutSpan(m, Span{Len: size, Chunks: InOffsetOrder(m, false)}, min(Pieces(size, s.shared.partLB), maxParts), s.shared.partLB)[1:] {
		m.Parts = append(m.Parts, uint32(sp.Off))
	}
	if err := pipe.FanOut(m.NumParts(), m.NumParts(), func(i int) error {
		off, end := m.PartRange(i)
		if i == len(m.Parts) {
			end = int64(len(enc)) // the last part carries the footer
		}
		return s.oss.Put(PartKey(m.Payload, i), enc[off:end])
	}); err != nil {
		return fmt.Errorf("container %s: write data: %w", c.Meta.ID, err)
	}
	return nil
}

// Read fetches a full container (metadata + payload), one request per
// part, and verifies every live chunk: ReadSpans with no spans.
func (s *Store) Read(id ID) (*Container, error) { return s.ReadSpans(id, nil) }

// ReadRaw fetches a container without chunk verification — the scrub path,
// which wants the damaged payload to salvage intact chunks from. footerOK
// reports the whole-payload checksum over every part. The result is
// read-only, as Read's.
func (s *Store) ReadRaw(id ID) (c *Container, footerOK bool, err error) {
	m, err := s.ReadMeta(id)
	if err != nil {
		return nil, false, err
	}
	c, footer, err := s.readWhole(m)
	if err != nil || footer == nil {
		return c, false, err
	}
	sum := ChecksumOf(c.Data)
	for _, p := range c.parts {
		sum = crc32.Update(sum, castagnoli, p.data)
	}
	return c, bytes.Equal(footer, appendFooter(make([]byte, 0, FooterSize), sum)), nil
}

// ReadMeta fetches container metadata, through the cache. A fetched meta
// is cached only if no meta write or invalidation came after the read
// began: a read that raced one may hold the older object, and installing
// it over the write's would serve that to every later reader.
func (s *Store) ReadMeta(id ID) (*Meta, error) {
	sh := s.shared
	sh.mu.Lock()
	m, ok := sh.metaCache[id]
	gen := sh.metaGen
	sh.mu.Unlock()
	if ok {
		return m, nil
	}
	b, err := s.oss.Get(MetaKey(id))
	if err != nil {
		return nil, fmt.Errorf("container %s: read meta: %w", id, err)
	}
	if m, err = DecodeMeta(b); err != nil {
		return nil, fmt.Errorf("container %s: %w", id, err)
	}
	sh.mu.Lock()
	if gen == sh.metaGen {
		sh.cacheMetaLocked(m)
	}
	sh.mu.Unlock()
	return m, nil
}

// WriteMeta puts the metadata object of a container that has none yet
// (Write, an L-node's commit); an existing one changes through UpdateMeta.
func (s *Store) WriteMeta(m *Meta) error {
	if err := s.oss.Put(MetaKey(m.ID), EncodeMeta(m)); err != nil {
		return fmt.Errorf("container %s: write meta: %w", m.ID, err)
	}
	s.shared.mu.Lock()
	s.shared.metaGen++
	s.shared.cacheMetaLocked(m)
	s.shared.mu.Unlock()
	s.notifyInvalidate(m.ID)
	return nil
}

// UpdateMeta is the one read-modify-write of an existing container's meta:
// apply gets a copy of the meta current at the put and returns the meta to
// put, or nil for none. A striped mutex, under which no other lock is taken,
// serialises the updates of a container, so a mark and a rewrite's switch
// never put a copy taken before the other landed. Returns the meta current
// afterwards, or the read's error.
func (s *Store) UpdateMeta(id ID, apply func(*Meta) *Meta) (*Meta, error) {
	mu := &s.shared.updating[uint64(id)%uint64(len(s.shared.updating))]
	mu.Lock()
	defer mu.Unlock()
	cur, err := s.ReadMeta(id)
	if err != nil {
		return nil, err
	}
	cp := *cur
	cp.Chunks = append([]ChunkMeta(nil), cur.Chunks...)
	if next := apply(&cp); next != nil {
		return next, s.WriteMeta(next)
	}
	return cur, nil
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
// them from the live namespace, the meta first, then every part: a crash
// in between leaves parts no meta names, which FullSweep reclaims. Missing
// objects are tolerated, and so is an undecodable meta (its payload is
// taken to be one object under the container's own ID) and an unreadable
// part — e.g. a stripe with more than M shards lost, which cannot be
// materialised; the live key is still dropped so the namespace heals. What
// is readable is preserved verbatim; nothing reads quarantined keys.
func (s *Store) Quarantine(id ID) error {
	raw, err := s.moveOut(id, MetaKey(id), QuarantinePrefix+id.String()+".meta")
	if err != nil {
		return err
	}
	m, err := DecodeMeta(raw)
	if err != nil {
		m = &Meta{Payload: id}
	}
	for i, key := range m.DataKeys() {
		if _, err := s.moveOut(id, key, QuarantinePrefix+strings.TrimPrefix(PartKey(id, i), Prefix)); err != nil {
			return err
		}
	}
	s.InvalidateMeta(id)
	return nil
}

// moveOut is one half of Quarantine: key's object, where it can be read, is
// put at dst and returned; then key is deleted.
func (s *Store) moveOut(id ID, key, dst string) ([]byte, error) {
	raw, err := s.oss.Get(key)
	switch {
	case err == nil:
		if err := s.oss.Put(dst, raw); err != nil {
			return nil, fmt.Errorf("container %s: quarantine write: %w", id, err)
		}
	case !errors.Is(err, oss.ErrNotFound) && !errors.Is(err, ec.ErrInsufficient):
		return nil, fmt.Errorf("container %s: quarantine read: %w", id, err)
	}
	if err := s.oss.Delete(key); err != nil {
		return nil, fmt.Errorf("container %s: quarantine delete: %w", id, err)
	}
	return raw, nil
}

// Delete removes a container: its meta, then the payload the meta names
// (one object under the container's own ID when the meta cannot be read).
// A crash in between leaves parts no meta names, which FullSweep reclaims.
func (s *Store) Delete(id ID) error {
	m, err := s.ReadMeta(id)
	if err != nil {
		m = &Meta{Payload: id}
	}
	if err := s.oss.Delete(MetaKey(id)); err != nil {
		return fmt.Errorf("container %s: delete meta: %w", id, err)
	}
	s.InvalidateMeta(id)
	return s.DeletePayload(m)
}

// List returns all container IDs in ascending order: those whose
// metadata object exists.
func (s *Store) List() ([]ID, error) {
	live, _, err := s.Scan()
	return live, err
}

// Scan lists the container namespace once, splitting it into containers
// (a metadata object exists), as List returns them, and the IDs payloads
// are stored under, once each. A payload no live meta names is what a
// crash leaves between a payload put and the meta that would name it, or
// between a meta's delete or switch and the payload's: some of its parts.
func (s *Store) Scan() (live, payloads []ID, err error) {
	keys, err := s.oss.List(Prefix)
	if err != nil {
		return nil, nil, fmt.Errorf("container: list: %w", err)
	}
	for _, k := range keys {
		id, ok := parseKey(k)
		switch {
		case !ok:
		case strings.HasSuffix(k, ".meta"):
			live = append(live, id)
		case strings.HasSuffix(k, ".data"):
			if n := len(payloads); n == 0 || payloads[n-1] != id { // a payload's keys list together
				payloads = append(payloads, id)
			}
		}
	}
	return live, payloads, nil
}

// DropOrphan deletes the parts it lists of a payload Scan returned that no
// live meta names, and reports their size. The caller excludes every
// writer (FullSweep stops the world), so no write is between its payload
// and its meta put.
func (s *Store) DropOrphan(payload ID) (int64, error) {
	keys, err := s.oss.List(Prefix + payload.String() + ".")
	keys = slices.DeleteFunc(keys, func(k string) bool { return !strings.HasSuffix(k, ".data") })
	var size int64
	for i := 0; err == nil && i < len(keys); i++ {
		var n int64
		n, err = s.oss.Head(keys[i])
		size += n
	}
	if err != nil {
		return 0, fmt.Errorf("container payload %s: orphan: %w", payload, err)
	}
	return size, s.deleteKeys(payload, keys)
}

// DeletePayload deletes the parts of m's payload, which no meta names now.
func (s *Store) DeletePayload(m *Meta) error { return s.deleteKeys(m.Payload, m.DataKeys()) }

// deleteKeys deletes payload's part objects keys side by side.
func (s *Store) deleteKeys(payload ID, keys []string) error {
	if err := pipe.FanOut(len(keys), len(keys), func(i int) error { return s.oss.Delete(keys[i]) }); err != nil {
		return fmt.Errorf("container payload %s: delete: %w", payload, err)
	}
	return nil
}

// InvalidateMeta drops a cached metadata entry (e.g. after an external
// writer rewrote the container).
func (s *Store) InvalidateMeta(id ID) {
	s.shared.mu.Lock()
	delete(s.shared.metaCache, id)
	s.shared.metaGen++
	s.shared.mu.Unlock()
	s.notifyInvalidate(id)
}

// cacheMetaLocked installs a copy of m; sh.mu is held.
func (sh *storeShared) cacheMetaLocked(m *Meta) {
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
