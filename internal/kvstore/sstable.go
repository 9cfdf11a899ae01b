package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"slimstore/internal/pipe"
)

// SSTable on-disk format (one OSS object per table):
//
//	[data block]*  [filter block]  [index block]  [footer]
//
// Data block entries, little endian:
//
//	klen u32 | key | seq u64 | kind u8 | vlen u32 | value
//
// Index block:
//
//	count u32 | ( klen u32 | firstKey | off u64 | len u64 )*
//
// Filter block: a bloom filter over user keys:
//
//	mBits u32 | k u32 | words u64*
//
// Footer (fixed 40 bytes at the object's tail):
//
//	filterOff u64 | filterLen u64 | indexOff u64 | indexLen u64 | magic u64
//
// Point lookups read the footer+index+filter once (cached by tableReader)
// and then fetch a single data block with a ranged OSS read, mirroring how
// Rocks-OSS serves G-node lookups with one remote read per miss.

const (
	sstMagic        = uint64(0x534C4D53_53540001) // "SLMSST" + version
	targetBlockSize = 16 << 10
	footerSize      = 40

	// filterBitsPerKey sizes each table's key filter: 16 bits, 11 probes,
	// about 0.05 % false positives. A unique fingerprint is checked
	// against every L0 table and one table per deeper level, so each
	// false positive is a data-block read.
	filterBitsPerKey = 16
)

// entryKind distinguishes puts from deletion tombstones.
type entryKind uint8

const (
	kindPut entryKind = iota
	kindDelete
)

// entry is an internal LSM entry.
type entry struct {
	key   []byte
	value []byte
	seq   uint64
	kind  entryKind
}

// ---------------------------------------------------------------------------
// Key bloom filter (over arbitrary byte keys; cbf works on fingerprints).

type keyBloom struct {
	words []uint64
	mBits uint32
	k     uint32
}

func newKeyBloom(n int, bitsPerKey int) *keyBloom {
	if n < 1 {
		n = 1
	}
	m := n * bitsPerKey
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(bitsPerKey) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 12 {
		k = 12
	}
	return &keyBloom{words: make([]uint64, (m+63)/64), mBits: uint32(m), k: uint32(k)}
}

func keyHash2(key []byte) (uint64, uint64) {
	h := fnv.New64a()
	h.Write(key)
	h1 := h.Sum64()
	h2 := h1>>33 | h1<<31
	h2 |= 1
	return h1, h2
}

func (b *keyBloom) add(key []byte) {
	h1, h2 := keyHash2(key)
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % uint64(b.mBits)
		b.words[bit/64] |= 1 << (bit % 64)
	}
}

func (b *keyBloom) mayContain(key []byte) bool {
	h1, h2 := keyHash2(key)
	for i := uint32(0); i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % uint64(b.mBits)
		if b.words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

func (b *keyBloom) encode() []byte {
	buf := make([]byte, 8+8*len(b.words))
	binary.LittleEndian.PutUint32(buf, b.mBits)
	binary.LittleEndian.PutUint32(buf[4:], b.k)
	for i, w := range b.words {
		binary.LittleEndian.PutUint64(buf[8+8*i:], w)
	}
	return buf
}

func decodeKeyBloom(buf []byte) (*keyBloom, error) {
	if len(buf) < 8 || (len(buf)-8)%8 != 0 {
		return nil, fmt.Errorf("kvstore: bad filter block size %d", len(buf))
	}
	b := &keyBloom{
		mBits: binary.LittleEndian.Uint32(buf),
		k:     binary.LittleEndian.Uint32(buf[4:]),
		words: make([]uint64, (len(buf)-8)/8),
	}
	if b.mBits == 0 || uint64(b.mBits) > 64*uint64(len(b.words)) || b.k == 0 || b.k > 12 {
		return nil, fmt.Errorf("kvstore: bad filter block: %d bits, %d probes in %d words", b.mBits, b.k, len(b.words))
	}
	for i := range b.words {
		b.words[i] = binary.LittleEndian.Uint64(buf[8+8*i:])
	}
	return b, nil
}

// ---------------------------------------------------------------------------
// Builder.

type blockHandle struct {
	firstKey []byte
	off, n   uint64
}

// sstBuilder serialises a sorted entry stream into the table format.
type sstBuilder struct {
	buf      bytes.Buffer
	block    bytes.Buffer
	blockKey []byte
	index    []blockHandle
	keys     [][]byte
	filter   *keyBloom // set by finish
	count    int
	smallest []byte
	largest  []byte
	maxSeq   uint64
}

func newSSTBuilder() *sstBuilder { return &sstBuilder{} }

// add appends an entry; entries must arrive in internal order.
func (b *sstBuilder) add(e *entry) {
	if b.smallest == nil {
		b.smallest = append([]byte{}, e.key...)
	}
	b.largest = append(b.largest[:0], e.key...)
	if e.seq > b.maxSeq {
		b.maxSeq = e.seq
	}
	if b.block.Len() == 0 {
		b.blockKey = append([]byte{}, e.key...)
	}
	var hdr [4 + 8 + 1 + 4]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(e.key)))
	b.block.Write(hdr[:4])
	b.block.Write(e.key)
	binary.LittleEndian.PutUint64(hdr[0:], e.seq)
	hdr[8] = byte(e.kind)
	binary.LittleEndian.PutUint32(hdr[9:], uint32(len(e.value)))
	b.block.Write(hdr[:13])
	b.block.Write(e.value)
	b.keys = append(b.keys, append([]byte{}, e.key...))
	b.count++
	if b.block.Len() >= targetBlockSize {
		b.finishBlock()
	}
}

func (b *sstBuilder) finishBlock() {
	if b.block.Len() == 0 {
		return
	}
	b.index = append(b.index, blockHandle{
		firstKey: b.blockKey,
		off:      uint64(b.buf.Len()),
		n:        uint64(b.block.Len()),
	})
	b.buf.Write(b.block.Bytes())
	b.block.Reset()
	b.blockKey = nil
}

// finish completes the table and returns the serialized object.
func (b *sstBuilder) finish() []byte {
	b.finishBlock()

	b.filter = newKeyBloom(len(b.keys), filterBitsPerKey)
	for _, k := range b.keys {
		b.filter.add(k)
	}
	filterOff := uint64(b.buf.Len())
	fb := b.filter.encode()
	b.buf.Write(fb)

	indexOff := uint64(b.buf.Len())
	var idx bytes.Buffer
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(b.index)))
	idx.Write(tmp[:4])
	for _, h := range b.index {
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(h.firstKey)))
		idx.Write(tmp[:4])
		idx.Write(h.firstKey)
		binary.LittleEndian.PutUint64(tmp[:], h.off)
		idx.Write(tmp[:])
		binary.LittleEndian.PutUint64(tmp[:], h.n)
		idx.Write(tmp[:])
	}
	b.buf.Write(idx.Bytes())

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:], filterOff)
	binary.LittleEndian.PutUint64(footer[8:], uint64(len(fb)))
	binary.LittleEndian.PutUint64(footer[16:], indexOff)
	binary.LittleEndian.PutUint64(footer[24:], uint64(idx.Len()))
	binary.LittleEndian.PutUint64(footer[32:], sstMagic)
	b.buf.Write(footer[:])
	return b.buf.Bytes()
}

// ---------------------------------------------------------------------------
// Reader.

// tableMeta describes one SSTable in the manifest.
type tableMeta struct {
	Name  string `json:"name"`
	Level int    `json:"level"`
	Size  int64  `json:"size"`
	Count int    `json:"count"`
	// Smallest/Largest are raw key bytes. They must be []byte, not string:
	// the manifest is JSON, and encoding/json silently rewrites invalid
	// UTF-8 in strings to U+FFFD, which corrupts binary key bounds on
	// reload ([]byte round-trips losslessly as base64).
	Smallest []byte `json:"smallest"`
	Largest  []byte `json:"largest"`
	MaxSeq   uint64 `json:"max_seq"`
}

// tableReader serves lookups from one SSTable, caching the index and
// filter blocks in memory while fetching data blocks on demand.
type tableReader struct {
	db     *DB
	meta   tableMeta
	index  []blockHandle
	filter *keyBloom
}

// openTable reads a table's filter and index in one ranged read of the
// object's tail, sized from what the manifest records: the filter is a
// function of Count, the index has at most one handle per targetBlockSize
// of Size, with first keys about as long as the bounds. Keys longer than
// that make the guess short; the footer says so and a second read fetches
// exactly the tail.
func (db *DB) openTable(meta tableMeta) (*tableReader, error) {
	keyLen := max(len(meta.Smallest), len(meta.Largest))
	words := max(1, (meta.Count*filterBitsPerKey+63)/64)
	guess := int64(footerSize + 8 + 8*words + 4 + (int(meta.Size/targetBlockSize)+1)*(4+keyLen+16))
	for {
		guess = min(guess, meta.Size)
		tail, err := db.store.GetRange(db.tableKey(meta.Name), meta.Size-guess, guess)
		if err == nil && int64(len(tail)) != guess {
			err = fmt.Errorf("read %d of the last %d bytes", len(tail), guess)
		}
		if err != nil {
			return nil, fmt.Errorf("kvstore: open %s: %w", meta.Name, err)
		}
		r, need, err := db.readerFromTail(meta, tail)
		if err != nil {
			return nil, fmt.Errorf("kvstore: open %s: %w", meta.Name, err)
		}
		if r != nil {
			return r, nil
		}
		guess = need
	}
}

// readerFromTail builds meta's reader from tail, the last bytes of its
// object, and returns need, the length of the tail that holds everything
// after the data blocks. A shorter tail yields need and no reader.
func (db *DB) readerFromTail(meta tableMeta, tail []byte) (r *tableReader, need int64, err error) {
	filterOff, filterLen, err := parseFooter(tail, meta.Size)
	if err != nil {
		return nil, 0, err
	}
	if need = meta.Size - filterOff; need > int64(len(tail)) {
		return nil, need, nil
	}
	body := tail[int64(len(tail))-need : len(tail)-footerSize]
	filter, err := decodeKeyBloom(body[:filterLen])
	if err != nil {
		return nil, 0, err
	}
	index, err := decodeIndexBlock(body[filterLen:])
	if err != nil {
		return nil, 0, err
	}
	return &tableReader{db: db, meta: meta, index: index, filter: filter}, need, nil
}

// parseFooter validates the footer that ends tail, the last bytes of a
// table object size bytes long, and returns where the filter block starts
// and how long it is; the index block runs from its end to the footer.
// The offsets come from the store and are trusted only as far as the
// layout finish writes: data, filter, index, footer, adjacent.
func parseFooter(tail []byte, size int64) (filterOff, filterLen int64, err error) {
	if len(tail) < footerSize || int64(len(tail)) > size {
		return 0, 0, fmt.Errorf("kvstore: %d-byte tail of a %d-byte table", len(tail), size)
	}
	foot := tail[len(tail)-footerSize:]
	if binary.LittleEndian.Uint64(foot[32:]) != sstMagic {
		return 0, 0, fmt.Errorf("kvstore: bad footer")
	}
	fOff, fLen := binary.LittleEndian.Uint64(foot[0:]), binary.LittleEndian.Uint64(foot[8:])
	iOff, iLen := binary.LittleEndian.Uint64(foot[16:]), binary.LittleEndian.Uint64(foot[24:])
	if end := uint64(size - footerSize); fOff > iOff || iOff > end || fOff+fLen != iOff || iOff+iLen != end {
		return 0, 0, fmt.Errorf("kvstore: footer offsets outside the table")
	}
	return int64(fOff), int64(fLen), nil
}

// readTablesLocked returns every entry of the given tables, each table's
// in order: one whole-object read per table, all in flight together —
// compaction and Scan decode every block anyway. The object holds the
// table's filter and index too, so a table without a reader gets one
// here, for nothing: an audit's Scan leaves every table ready to probe.
func (db *DB) readTablesLocked(metas []tableMeta) ([]entry, error) {
	parts := make([][]entry, len(metas))
	readers := make([]*tableReader, len(metas))
	err := pipe.FanOut(len(metas), blockFetchWidth, func(i int) error {
		obj, err := db.store.Get(db.tableKey(metas[i].Name))
		if err == nil && int64(len(obj)) != metas[i].Size {
			err = fmt.Errorf("%d bytes, manifest says %d", len(obj), metas[i].Size)
		}
		if err == nil {
			var need int64
			if readers[i], need, err = db.readerFromTail(metas[i], obj); err == nil {
				parts[i], err = decodeBlockEntries(obj[:int64(len(obj))-need])
			}
		}
		if err != nil {
			return fmt.Errorf("kvstore: read %s: %w", metas[i].Name, err)
		}
		return nil
	})
	var all []entry
	for i, es := range parts {
		all = append(all, es...)
		if name := metas[i].Name; readers[i] != nil && db.readers[name] == nil {
			db.readers[name] = readers[i]
		}
	}
	return all, err
}

func decodeIndexBlock(b []byte) ([]blockHandle, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("kvstore: index block too short")
	}
	n := int(binary.LittleEndian.Uint32(b))
	p := 4
	if n > (len(b)-p)/20 { // every handle takes ≥ 20 bytes
		return nil, fmt.Errorf("kvstore: index block of %d bytes claims %d handles", len(b), n)
	}
	out := make([]blockHandle, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < p+4 {
			return nil, fmt.Errorf("kvstore: truncated index block")
		}
		klen := int(binary.LittleEndian.Uint32(b[p:]))
		p += 4
		if len(b) < p+klen+16 {
			return nil, fmt.Errorf("kvstore: truncated index entry")
		}
		h := blockHandle{firstKey: append([]byte{}, b[p:p+klen]...)}
		p += klen
		h.off = binary.LittleEndian.Uint64(b[p:])
		h.n = binary.LittleEndian.Uint64(b[p+8:])
		p += 16
		out = append(out, h)
	}
	return out, nil
}

// decodeBlockEntries parses all entries of one data block.
func decodeBlockEntries(b []byte) ([]entry, error) {
	var out []entry
	p := 0
	for p < len(b) {
		if len(b) < p+4 {
			return nil, fmt.Errorf("kvstore: truncated block entry")
		}
		klen := int(binary.LittleEndian.Uint32(b[p:]))
		p += 4
		if len(b) < p+klen+13 {
			return nil, fmt.Errorf("kvstore: truncated block entry")
		}
		e := entry{key: append([]byte{}, b[p:p+klen]...)}
		p += klen
		e.seq = binary.LittleEndian.Uint64(b[p:])
		e.kind = entryKind(b[p+8])
		vlen := int(binary.LittleEndian.Uint32(b[p+9:]))
		p += 13
		if len(b) < p+vlen {
			return nil, fmt.Errorf("kvstore: truncated block value")
		}
		e.value = append([]byte{}, b[p:p+vlen]...)
		p += vlen
		out = append(out, e)
	}
	return out, nil
}

// blockFor returns the index of the first data block that may contain
// key's newest version, or -1 if the key sorts before every block.
// Entries are laid out key ASC, seq DESC, so a key with many versions can
// spill across block boundaries: every later block of the run starts with
// that same key but holds only its OLDER versions. The newest version
// therefore lives in the earliest covering block, and callers must keep
// scanning forward while the next block's firstKey still equals the key
// (searchFrom does this) — resolving within a single later block returns
// a stale version.
func (t *tableReader) blockFor(key []byte) int {
	// First block whose firstKey >= key.
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].firstKey, key) >= 0
	})
	if i > 0 {
		// Even when block i starts exactly at key, the run may begin at
		// the tail of block i-1, which then holds the newest version.
		return i - 1
	}
	if len(t.index) > 0 && bytes.Equal(t.index[0].firstKey, key) {
		return 0
	}
	return -1
}

// searchFrom resolves key given the decoded entries of its first
// candidate block bi (from blockFor), advancing into following blocks as
// long as they still start at key. A block is sorted key ascending, seq
// descending, so a binary search lands on the key's first entry in the
// block, and the first match in file order is the newest version. fetched
// is passed through to blockEntries.
func (t *tableReader) searchFrom(bi int, entries []entry, key []byte, fetched map[int][]entry) (entry, bool, error) {
	for {
		i := sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].key, key) >= 0 })
		if i < len(entries) && bytes.Equal(entries[i].key, key) {
			return entries[i], true, nil
		}
		bi++
		if bi >= len(t.index) || !bytes.Equal(t.index[bi].firstKey, key) {
			return entry{}, false, nil
		}
		var err error
		if entries, err = t.blockEntries(bi, fetched); err != nil {
			return entry{}, false, err
		}
	}
}

// readBlock fetches and decodes data block bi from OSS. It touches no DB
// state, so fetchBlocks may call it from several goroutines at once.
func (t *tableReader) readBlock(bi int) ([]entry, error) {
	h := t.index[bi]
	blk, err := t.db.store.GetRange(t.db.tableKey(t.meta.Name), int64(h.off), int64(h.n))
	if err != nil {
		return nil, fmt.Errorf("kvstore: read block of %s: %w", t.meta.Name, err)
	}
	return decodeBlockEntries(blk)
}

// blockEntries returns the decoded entries of data block bi, consulting
// the DB-wide block cache first. The lookup groups keys per block so each
// block is fetched at most once per probe. On a cache miss a block
// fetchBlocks already read is taken from fetched (and removed: each fetched
// block stands in for exactly one OSS read) instead of being read again;
// either way it is installed in the cache here, in the order the probe
// reaches it, so cache contents do not depend on the fetch window.
func (t *tableReader) blockEntries(bi int, fetched map[int][]entry) ([]entry, error) {
	h := t.index[bi]
	ck := blockKey{table: t.meta.Name, off: h.off}
	t.db.stats.TableReads++
	if entries, cached := t.db.blocks.get(ck); cached {
		t.db.stats.BlockCacheHits++
		return entries, nil
	}
	entries, ok := fetched[bi]
	if ok {
		delete(fetched, bi)
	} else {
		var err error
		if entries, err = t.readBlock(bi); err != nil {
			return nil, err
		}
	}
	t.db.blocks.put(ck, entries, int64(h.n))
	return entries, nil
}

// blockFetchWidth bounds the ranged reads one table probe keeps in
// flight, and with them the decoded blocks it holds outside the block
// cache: wide enough that a restore's batched probe reads each table's
// missing blocks in one round trip (a cold probe of a few dozen blocks),
// without opening an unbounded number of OSS channels. The whole-object
// reads and deletes of open, compaction and Scan fan out as wide.
const blockFetchWidth = 64

// fetchBlocks reads, concurrently, the next window of a probe's blocks:
// it scans bis from position from until it has found blockFetchWidth
// blocks the cache does not hold (or bis ends), reads those, and returns
// them with the position its scan stopped at, so a batched probe pays one
// OSS round trip per window instead of one per block. It only reads: the
// cache is neither touched nor filled (blockEntries installs each block
// when the probe reaches it). Every goroutine has exited before it
// returns; on failure the error of the earliest failing block in bis
// order is returned.
func (t *tableReader) fetchBlocks(bis []int, from int) (fetched map[int][]entry, next int, err error) {
	var need []int
	for next = from; next < len(bis) && len(need) < blockFetchWidth; next++ {
		if !t.db.blocks.has(blockKey{table: t.meta.Name, off: t.index[bis[next]].off}) {
			need = append(need, bis[next])
		}
	}
	if len(need) < 2 {
		return nil, next, nil // nothing to overlap; blockEntries reads it in place
	}
	blocks := make([][]entry, len(need))
	errs := make([]error, len(need))
	// fn never fails: every block is read, and the earliest failure in bis
	// order is picked from the slots below.
	_ = pipe.FanOut(len(need), len(need), func(i int) error {
		blocks[i], errs[i] = t.readBlock(need[i])
		return nil
	})
	fetched = make(map[int][]entry, len(need))
	for i, bi := range need {
		if errs[i] != nil {
			return nil, next, errs[i]
		}
		fetched[bi] = blocks[i]
	}
	return fetched, next, nil
}
