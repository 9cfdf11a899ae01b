// Package container implements the container store, the basic storage and
// access unit of backup data on OSS (paper §III-B).
//
// Non-duplicate chunks are aggregated into fixed-capacity containers.
// Reading a whole container per request amortises OSS latency and exploits
// physical locality: chunks stored together were adjacent in some backup
// file, so one read serves many nearby chunk accesses.
//
// Each container persists as a metadata object and a payload of one or
// more part objects, each written once:
//
//	containers/<id>.meta      — per-chunk records (fp, offset, size, deleted), payload ID, part offsets
//	containers/<pid>.data     — the payload, or its first part
//	containers/<pid>.<i>.data — part i of a payload put in parts (Store.WritePayload, Pieces)
//
// Parts are cut on chunk boundaries and the last ends in the footer, so
// laid end to end they are the one-object data object byte for byte.
//
// Splitting metadata from data lets G-node's reverse deduplication mark
// chunks deleted by rewriting only the small metadata object (§VI-A); past
// the compaction threshold the payload is rewritten beside the old under a
// fresh ID and one meta put switches to it. The meta, the one object that
// changes, never rides the striped tier (ec.Router).
package container

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"

	"slimstore/internal/fingerprint"
)

// ErrCorrupt marks integrity failures detected by checksum verification.
// Errors wrapping it carry the container (and, when known, the chunk) via
// CorruptError.
var ErrCorrupt = errors.New("container: corrupt")

// CorruptError identifies corrupt state down to the chunk.
type CorruptError struct {
	Container ID
	FP        fingerprint.FP // zero when the whole object is bad (meta, footer)
	Detail    string
}

// Error implements error.
func (e *CorruptError) Error() string {
	if e.FP.IsZero() {
		return fmt.Sprintf("container %s corrupt: %s", e.Container, e.Detail)
	}
	return fmt.Sprintf("container %s chunk %s corrupt: %s", e.Container, e.FP.Short(), e.Detail)
}

// Unwrap lets errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Unwrap() error { return ErrCorrupt }

// castagnoli is the CRC32C polynomial table, the common choice for storage
// checksums (hardware-accelerated on modern CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumOf computes the CRC32C checksum used for chunk and footer sums.
func ChecksumOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// ID identifies a container. IDs are unique per backup repository.
type ID uint64

// Invalid is the zero ID, never assigned to a real container.
const Invalid ID = 0

// String renders the ID as it appears in OSS keys.
func (id ID) String() string { return fmt.Sprintf("C%016x", uint64(id)) }

// DefaultCapacity is the default container payload capacity. 4 MiB is the
// common choice in deduplication systems (DDFS-lineage) and amortises OSS
// request latency well.
const DefaultCapacity = 4 << 20

// ChunkMeta describes one chunk stored in a container.
type ChunkMeta struct {
	FP      fingerprint.FP
	Offset  uint32
	Size    uint32
	Deleted bool
	Sum     uint32 // CRC32C of the chunk payload
}

// Meta is a container's metadata: the chunk directory plus summary
// counters used by sparse-container detection and deferred compaction.
type Meta struct {
	ID       ID
	Payload  ID // the ID the data object is stored under (DataKey)
	Chunks   []ChunkMeta
	DataSize uint32   // payload bytes including deleted chunks
	Parts    []uint32 // where parts 1, 2, … start, ascending; nil for one object

	// fpIdx is a permutation of chunk indexes sorted by (FP, index),
	// giving Find a binary search instead of a linear scan. It is built
	// once — DecodeMeta and seal, both single-goroutine points after
	// which Chunks no longer gains or reorders records — and never
	// mutated, so Meta value copies share it safely. Deletion marks only
	// flip Chunks[i].Deleted in place, which the index is insensitive
	// to. nil falls back to the linear scan (hand-built metas, tiny
	// directories).
	fpIdx []int32
}

// findIndexMin is the chunk count at which building the Find index pays
// for itself; below it the linear scan wins on constant factors.
const findIndexMin = 16

// buildFindIndex (re)builds the sorted fingerprint permutation. Callers
// must not be sharing m with other goroutines yet.
func (m *Meta) buildFindIndex() {
	if len(m.Chunks) < findIndexMin {
		m.fpIdx = nil
		return
	}
	idx := make([]int32, len(m.Chunks))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		ca, cb := &m.Chunks[idx[a]], &m.Chunks[idx[b]]
		if c := bytes.Compare(ca.FP[:], cb.FP[:]); c != 0 {
			return c < 0
		}
		return idx[a] < idx[b] // stable on duplicates: Find returns the first
	})
	m.fpIdx = idx
}

// Find returns the metadata of the chunk with fingerprint fp, or nil.
// With duplicates the record with the lowest chunk index wins (matching
// the historical linear scan). It sits on the restore redirect path and
// inside the ranged-read planner, so decoded metas answer it via a
// binary search over the build-once fingerprint index.
func (m *Meta) Find(fp fingerprint.FP) *ChunkMeta {
	if m.fpIdx != nil {
		i := sort.Search(len(m.fpIdx), func(i int) bool {
			return bytes.Compare(m.Chunks[m.fpIdx[i]].FP[:], fp[:]) >= 0
		})
		if i < len(m.fpIdx) && m.Chunks[m.fpIdx[i]].FP == fp {
			return &m.Chunks[m.fpIdx[i]]
		}
		return nil
	}
	for i := range m.Chunks {
		if m.Chunks[i].FP == fp {
			return &m.Chunks[i]
		}
	}
	return nil
}

// LiveChunks counts non-deleted chunks.
func (m *Meta) LiveChunks() int {
	n := 0
	for i := range m.Chunks {
		if !m.Chunks[i].Deleted {
			n++
		}
	}
	return n
}

// LiveBytes sums non-deleted chunk sizes.
func (m *Meta) LiveBytes() int64 {
	var n int64
	for i := range m.Chunks {
		if !m.Chunks[i].Deleted {
			n += int64(m.Chunks[i].Size)
		}
	}
	return n
}

// StaleProportion is the fraction of chunks marked deleted (paper §III-B:
// "the proportion of stale chunks"). Used by G-node to decide when the data
// object is worth rewriting (§VI-A, e.g. 20%).
func (m *Meta) StaleProportion() float64 {
	if len(m.Chunks) == 0 {
		return 0
	}
	return float64(len(m.Chunks)-m.LiveChunks()) / float64(len(m.Chunks))
}

// NumParts is the number of part objects the payload is stored as.
func (m *Meta) NumParts() int { return len(m.Parts) + 1 }

// PartRange returns the payload bytes [off, end) part i holds.
func (m *Meta) PartRange(i int) (off, end int64) {
	end = int64(m.DataSize)
	if i > 0 {
		off = int64(m.Parts[i-1])
	}
	if i < len(m.Parts) {
		end = int64(m.Parts[i])
	}
	return off, end
}

// Pieces is the one piece-count rule (DESIGN.md §10): the most pieces, on
// channels of their own, a transfer of length bytes is cut into while the
// last still saves two request latencies: 2·p(p−1)·lb ≤ length, lb = L·B.
func Pieces(length, lb int64) int {
	p := int64(1)
	for lb > 0 && 2*(p+1)*p*lb <= length {
		p++
	}
	return int(p)
}

// CutSpan cuts sp, a read of m's payload listing its chunks in ascending
// offset order, into at most k pieces that tile it. A cut falls only on a
// chunk boundary — the start of a listed chunk that no earlier one reaches
// past — and the j-th on the boundary nearest j/k of the way through,
// unless that would leave a piece shorter than floor: then it is not made.
func CutSpan(m *Meta, sp Span, k int, floor int64) []Span {
	at := func(n int) int64 { return int64(m.Chunks[sp.Chunks[n]].Offset) }
	var bounds []int // n such that sp.Chunks[n] starts on a boundary
	covered := sp.Off
	for n, ci := range sp.Chunks {
		if n > 0 && at(n) >= covered {
			bounds = append(bounds, n)
		}
		covered = max(covered, at(n)+int64(m.Chunks[ci].Size))
	}
	out := make([]Span, 0, k)
	end := sp.Off + sp.Len
	cur, first := sp.Off, 0
	for j := 1; j < k && len(bounds) > 0; j++ {
		target := sp.Off + sp.Len*int64(j)/int64(k)
		i := sort.Search(len(bounds), func(i int) bool { return at(bounds[i]) >= target })
		if i == len(bounds) || i > 0 && target-at(bounds[i-1]) <= at(bounds[i])-target {
			i--
		}
		if n := bounds[i]; at(n)-cur >= floor && end-at(n) >= floor {
			out = append(out, Span{Off: cur, Len: at(n) - cur, Chunks: sp.Chunks[first:n]})
			cur, first = at(n), n
		}
	}
	return append(out, Span{Off: cur, Len: end - cur, Chunks: sp.Chunks[first:]})
}

// InOffsetOrder returns the indexes of m's chunks — all of them, or the
// live ones only — in ascending offset order, ties in chunk order.
func InOffsetOrder(m *Meta, liveOnly bool) []int {
	idx := make([]int, 0, len(m.Chunks))
	for i := range m.Chunks {
		if !liveOnly || !m.Chunks[i].Deleted {
			idx = append(idx, i)
		}
	}
	byOffset := func(a, b int) int { return cmp.Compare(m.Chunks[a].Offset, m.Chunks[b].Offset) }
	if !slices.IsSortedFunc(idx, byOffset) { // a builder's or a rewrite's chunks are
		slices.SortStableFunc(idx, byOffset)
	}
	return idx
}

// Container is a materialised container: metadata plus payload. Data is
// the payload from offset 0 — what a builder fills and one GET of a
// one-part payload returns. A container fetched in several requests — the
// parts of a payload put in parts, or byte ranges (ReadSpans) — holds them
// as parts instead and leaves Data nil: each stays the buffer its request
// returned, and ChunkData indexes the part a chunk lies in.
//
// The payload of a container a Store returned (Read, ReadRaw, ReadSpans)
// is read-only: it may alias the object store's memory (oss.Store.Get),
// and the node-wide restore cache hands one fetched container to every job
// that asks for it. Only a container the caller built itself has a Data it
// may write.
type Container struct {
	Meta  Meta
	Data  []byte
	parts []part // ascending, disjoint; nil when Data is the payload
}

// part is one fetched byte range of a container's payload.
type part struct {
	off  int64
	data []byte
}

// Size is the number of payload bytes the container holds.
func (c *Container) Size() int64 {
	n := int64(len(c.Data))
	for i := range c.parts {
		n += int64(len(c.parts[i].data))
	}
	return n
}

// ChunkData returns the payload of the chunk described by cm. The slice
// aliases the container's payload; a chunk outside the fetched ranges of a
// container read in parts is an error, never other bytes.
func (c *Container) ChunkData(cm *ChunkMeta) ([]byte, error) {
	off, end := int64(cm.Offset), int64(cm.Offset)+int64(cm.Size)
	if c.parts == nil && end <= int64(len(c.Data)) {
		return c.Data[off:end], nil
	}
	for i := len(c.parts) - 1; i >= 0; i-- { // the last part starting at or before the chunk
		if p := &c.parts[i]; p.off <= off {
			if end <= p.off+int64(len(p.data)) {
				return p.data[off-p.off : end-p.off], nil
			}
			break
		}
	}
	return nil, fmt.Errorf("container %s: chunk %s range [%d,%d) exceeds the %d payload bytes held",
		c.Meta.ID, cm.FP.Short(), off, end, c.Size())
}

// Get returns the payload of the chunk with fingerprint fp.
func (c *Container) Get(fp fingerprint.FP) ([]byte, error) {
	cm := c.Meta.Find(fp)
	if cm == nil {
		return nil, fmt.Errorf("container %s: chunk %s not found", c.Meta.ID, fp.Short())
	}
	return c.ChunkData(cm)
}

// VerifyChunk checks one chunk's bounds and its CRC against the payload. It
// returns a *CorruptError on mismatch.
func (c *Container) VerifyChunk(cm *ChunkMeta) error {
	data, err := c.ChunkData(cm)
	if err != nil {
		return &CorruptError{Container: c.Meta.ID, FP: cm.FP, Detail: err.Error()}
	}
	if got := ChecksumOf(data); got != cm.Sum {
		return &CorruptError{Container: c.Meta.ID, FP: cm.FP,
			Detail: fmt.Sprintf("checksum %08x, want %08x", got, cm.Sum)}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Serialization. Fixed-width little-endian encoding: simple, versioned, and
// fast to decode without reflection.
//
// A metadata object carries a CRC32C per chunk record and a CRC32C trailer
// over the whole object; the data object ends in an 8-byte footer (magic +
// payload CRC32C).

const metaMagic = uint32(0x534C4D43) // "SLMC"

// The metadata versions DecodeMeta reads. MetaV4 adds the part offsets
// after the header, written only for a payload in parts.
const (
	MetaV3 = 3
	MetaV4 = 4
)

// metaHeader is a meta's fixed prefix: magic, version, ID, payload ID, count, size.
const metaHeader = 32

// Data object footer: magic then CRC32C of the full payload.
const (
	footerMagic = uint32(0x534C4D46) // "SLMF"
	FooterSize  = 8
)

// chunkMetaWire is the on-wire size of one ChunkMeta record.
const chunkMetaWire = fingerprint.Size + 4 + 4 + 1 + 4

// EncodeMeta serialises container metadata.
func EncodeMeta(m *Meta) []byte {
	buf := make([]byte, metaHeader, metaHeader+4+4*len(m.Parts)+len(m.Chunks)*chunkMetaWire+4)
	binary.LittleEndian.PutUint32(buf[0:], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:], MetaV3)
	binary.LittleEndian.PutUint64(buf[8:], uint64(m.ID))
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.Payload))
	binary.LittleEndian.PutUint32(buf[24:], uint32(len(m.Chunks)))
	binary.LittleEndian.PutUint32(buf[28:], m.DataSize)
	if len(m.Parts) > 0 {
		binary.LittleEndian.PutUint32(buf[4:], MetaV4)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Parts)))
		for _, off := range m.Parts {
			buf = binary.LittleEndian.AppendUint32(buf, off)
		}
	}
	var rec [chunkMetaWire]byte
	for i := range m.Chunks {
		cm := &m.Chunks[i]
		copy(rec[:fingerprint.Size], cm.FP[:])
		binary.LittleEndian.PutUint32(rec[fingerprint.Size:], cm.Offset)
		binary.LittleEndian.PutUint32(rec[fingerprint.Size+4:], cm.Size)
		if cm.Deleted {
			rec[fingerprint.Size+8] = 1
		} else {
			rec[fingerprint.Size+8] = 0
		}
		binary.LittleEndian.PutUint32(rec[fingerprint.Size+9:], cm.Sum)
		buf = append(buf, rec[:]...)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], ChecksumOf(buf))
	return append(buf, crc[:]...)
}

// DecodeMeta parses container metadata. Every rejection wraps ErrCorrupt;
// an object failing its trailer checksum returns a *CorruptError. A v4
// meta names two parts or more, at ascending offsets that cut no chunk.
func DecodeMeta(b []byte) (*Meta, error) {
	if len(b) < 8 || binary.LittleEndian.Uint32(b[0:4]) != metaMagic {
		return nil, fmt.Errorf("%w: not a meta: bad magic, or %d bytes", ErrCorrupt, len(b))
	}
	v := binary.LittleEndian.Uint32(b[4:8])
	if v != MetaV3 && v != MetaV4 {
		return nil, fmt.Errorf("%w: unsupported meta version %d (this build reads %d and %d, which name the payload's ID)", ErrCorrupt, v, MetaV3, MetaV4)
	}
	off := metaHeader + 4*int(v-MetaV3) // v4 counts its part offsets here
	if len(b) < off+4 {
		return nil, fmt.Errorf("%w: meta too short (%d bytes)", ErrCorrupt, len(b))
	}
	m := &Meta{
		ID:       ID(binary.LittleEndian.Uint64(b[8:16])),
		Payload:  ID(binary.LittleEndian.Uint64(b[16:24])),
		DataSize: binary.LittleEndian.Uint32(b[28:32]),
	}
	n, cuts := int64(binary.LittleEndian.Uint32(b[24:28])), int64(0)
	if v == MetaV4 {
		cuts = int64(binary.LittleEndian.Uint32(b[metaHeader:]))
	}
	if int64(len(b)) != int64(off)+4*cuts+n*chunkMetaWire+4 {
		return nil, fmt.Errorf("%w: meta size %d does not match %d parts and %d chunks", ErrCorrupt, len(b), cuts+1, n)
	}
	stored := binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := ChecksumOf(b[:len(b)-4]); got != stored {
		return nil, &CorruptError{Container: m.ID,
			Detail: fmt.Sprintf("meta checksum %08x, want %08x", got, stored)}
	}
	if v == MetaV4 && cuts == 0 {
		return nil, fmt.Errorf("%w: v4 meta of container %s names one part", ErrCorrupt, m.ID)
	}
	for i := int64(0); i < cuts; i, off = i+1, off+4 {
		at := binary.LittleEndian.Uint32(b[off:])
		if at == 0 || at >= m.DataSize || i > 0 && at <= m.Parts[i-1] {
			return nil, fmt.Errorf("%w: container %s: part offset %d out of order or outside the payload of %d bytes", ErrCorrupt, m.ID, at, m.DataSize)
		}
		m.Parts = append(m.Parts, at)
	}
	m.Chunks = make([]ChunkMeta, n)
	for i := range m.Chunks {
		cm := &m.Chunks[i]
		copy(cm.FP[:], b[off:off+fingerprint.Size])
		cm.Offset = binary.LittleEndian.Uint32(b[off+fingerprint.Size:])
		cm.Size = binary.LittleEndian.Uint32(b[off+fingerprint.Size+4:])
		cm.Deleted = b[off+fingerprint.Size+8] == 1
		cm.Sum = binary.LittleEndian.Uint32(b[off+fingerprint.Size+9:])
		off += chunkMetaWire
		// The first cut past the chunk's start must not fall before its end.
		if j := sort.Search(len(m.Parts), func(j int) bool { return m.Parts[j] > cm.Offset }); j < len(m.Parts) &&
			uint64(m.Parts[j]) < uint64(cm.Offset)+uint64(cm.Size) {
			return nil, fmt.Errorf("%w: container %s: part offset %d cuts through chunk %s", ErrCorrupt, m.ID, m.Parts[j], cm.FP.Short())
		}
	}
	m.buildFindIndex()
	return m, nil
}

// appendFooter seals a payload whose CRC32C is sum into a data object: the
// footer is appended, in place when cap(payload) has room for it.
func appendFooter(payload []byte, sum uint32) []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(payload, footerMagic), sum)
}
