// Package recipe implements the recipe store (paper §III-B): per-version
// file recipes describing the logical sequence of chunks, segment recipes
// grouping consecutive chunk records, and the recipe index mapping sampled
// fingerprints to their segment — the structure L-node uses to exploit
// logical locality during online deduplication (§IV-A).
//
// A chunk record is the quadruple ⟨fp, containerID, size, duplicateTimes⟩.
// duplicateTimes counts how many historical versions confirmed the chunk as
// a duplicate; history-aware chunk merging (§IV-C) merges runs of records
// whose count crosses a threshold into superchunks, which carry an extra
// firstChunk fingerprint used to probe for the superchunk cheaply.
package recipe

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
)

// ChunkRecord is one entry in a recipe.
type ChunkRecord struct {
	FP             fingerprint.FP
	Container      container.ID
	Size           uint32
	DuplicateTimes uint32
	// Super marks a superchunk record; FirstChunk is then the fingerprint
	// of the first CDC chunk the superchunk begins with (Algorithm 1).
	Super      bool
	FirstChunk fingerprint.FP
}

// Segment is a group of consecutive chunk records (a segment recipe).
type Segment struct {
	Records []ChunkRecord
}

// Bytes returns the logical size of the segment's chunks.
func (s *Segment) Bytes() int64 {
	var n int64
	for i := range s.Records {
		n += int64(s.Records[i].Size)
	}
	return n
}

// Recipe is the full chunk sequence of one backup file version.
type Recipe struct {
	FileID   string
	Version  int
	Segments []Segment
}

// NumChunks counts chunk records across segments.
func (r *Recipe) NumChunks() int {
	n := 0
	for i := range r.Segments {
		n += len(r.Segments[i].Records)
	}
	return n
}

// LogicalBytes is the restored size of the file.
func (r *Recipe) LogicalBytes() int64 {
	var n int64
	for i := range r.Segments {
		n += r.Segments[i].Bytes()
	}
	return n
}

// Iter calls fn for every chunk record in logical order, stopping early if
// fn returns false.
func (r *Recipe) Iter(fn func(seg, idx int, rec *ChunkRecord) bool) {
	for s := range r.Segments {
		for i := range r.Segments[s].Records {
			if !fn(s, i, &r.Segments[s].Records[i]) {
				return
			}
		}
	}
}

// Index maps sampled (representative) fingerprints of a recipe to the
// segment that contains them, so a similar segment can be located with one
// in-memory lookup and fetched with one ranged OSS read.
type Index struct {
	FileID  string
	Version int
	// Samples maps a representative fingerprint to the segment number of
	// its first occurrence.
	Samples map[fingerprint.FP]int32
}

// BuildIndex samples a recipe with the given sampler. The first fingerprint
// of every segment is always included so every segment remains reachable
// even if random sampling misses it. Superchunk records additionally index
// their FirstChunk fingerprint: the next version's CDC stream produces the
// constituent fingerprints, not the merged one, so the first chunk is the
// only handle that can locate a superchunk-bearing segment (§IV-C).
func BuildIndex(r *Recipe, sampler fingerprint.Sampler) *Index {
	idx := &Index{FileID: r.FileID, Version: r.Version, Samples: make(map[fingerprint.FP]int32)}
	add := func(fp fingerprint.FP, s int) {
		if _, ok := idx.Samples[fp]; !ok {
			idx.Samples[fp] = int32(s)
		}
	}
	for s := range r.Segments {
		recs := r.Segments[s].Records
		for i := range recs {
			fp := recs[i].FP
			if i == 0 || sampler.Sample(fp) {
				add(fp, s)
			}
			if recs[i].Super {
				add(recs[i].FirstChunk, s)
			}
		}
	}
	return idx
}

// ---------------------------------------------------------------------------
// Serialization.
//
// Recipe wire layout (little endian):
//
//	magic u32 | version u32 | fileID len u32 | fileID | fileVersion u32 |
//	segCount u32 | segment directory: (offset u64, length u64)*segCount |
//	segment payloads...
//
// The directory lets a reader fetch a single segment with one ranged read;
// offsets are relative to the start of the object.

const recipeMagic = uint32(0x534C4D52) // "SLMR"
const indexMagic = uint32(0x534C4D49)  // "SLMI"
const wireVersion = 1

const recFixedWire = fingerprint.Size + 8 + 4 + 4 + 1

func appendRecord(buf []byte, rec *ChunkRecord) []byte {
	var tmp [recFixedWire]byte
	copy(tmp[:fingerprint.Size], rec.FP[:])
	binary.LittleEndian.PutUint64(tmp[fingerprint.Size:], uint64(rec.Container))
	binary.LittleEndian.PutUint32(tmp[fingerprint.Size+8:], rec.Size)
	binary.LittleEndian.PutUint32(tmp[fingerprint.Size+12:], rec.DuplicateTimes)
	if rec.Super {
		tmp[fingerprint.Size+16] = 1
	}
	buf = append(buf, tmp[:]...)
	if rec.Super {
		buf = append(buf, rec.FirstChunk[:]...)
	}
	return buf
}

func decodeRecord(b []byte) (ChunkRecord, int, error) {
	if len(b) < recFixedWire {
		return ChunkRecord{}, 0, fmt.Errorf("recipe: truncated chunk record")
	}
	var rec ChunkRecord
	copy(rec.FP[:], b[:fingerprint.Size])
	rec.Container = container.ID(binary.LittleEndian.Uint64(b[fingerprint.Size:]))
	rec.Size = binary.LittleEndian.Uint32(b[fingerprint.Size+8:])
	rec.DuplicateTimes = binary.LittleEndian.Uint32(b[fingerprint.Size+12:])
	n := recFixedWire
	if b[fingerprint.Size+16] == 1 {
		rec.Super = true
		if len(b) < n+fingerprint.Size {
			return ChunkRecord{}, 0, fmt.Errorf("recipe: truncated superchunk record")
		}
		copy(rec.FirstChunk[:], b[n:n+fingerprint.Size])
		n += fingerprint.Size
	}
	return rec, n, nil
}

// EncodeSegment serialises one segment recipe.
func EncodeSegment(s *Segment) []byte {
	buf := make([]byte, 4, 4+len(s.Records)*recFixedWire)
	binary.LittleEndian.PutUint32(buf, uint32(len(s.Records)))
	for i := range s.Records {
		buf = appendRecord(buf, &s.Records[i])
	}
	return buf
}

// DecodeSegment parses one segment recipe.
func DecodeSegment(b []byte) (*Segment, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("recipe: segment too short")
	}
	n := int(binary.LittleEndian.Uint32(b))
	// Every record occupies at least recFixedWire bytes; reject impossible
	// counts before allocating (a hostile header can claim 4G records).
	if n > (len(b)-4)/recFixedWire {
		return nil, fmt.Errorf("recipe: segment claims %d records in %d bytes", n, len(b))
	}
	seg := &Segment{}
	if n > 0 {
		seg.Records = make([]ChunkRecord, 0, n)
	}
	off := 4
	for i := 0; i < n; i++ {
		rec, sz, err := decodeRecord(b[off:])
		if err != nil {
			return nil, fmt.Errorf("recipe: segment record %d: %w", i, err)
		}
		seg.Records = append(seg.Records, rec)
		off += sz
	}
	if off != len(b) {
		return nil, fmt.Errorf("recipe: %d trailing bytes after segment", len(b)-off)
	}
	return seg, nil
}

// Encode serialises a full recipe with its segment directory.
func Encode(r *Recipe) []byte {
	segs := make([][]byte, len(r.Segments))
	for i := range r.Segments {
		segs[i] = EncodeSegment(&r.Segments[i])
	}
	head := 4 + 4 + 4 + len(r.FileID) + 4 + 4 + 16*len(segs)
	buf := make([]byte, 0, head)
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	put32(recipeMagic)
	put32(wireVersion)
	put32(uint32(len(r.FileID)))
	buf = append(buf, r.FileID...)
	put32(uint32(r.Version))
	put32(uint32(len(segs)))
	off := uint64(len(buf) + 16*len(segs))
	var u64 [8]byte
	for _, s := range segs {
		binary.LittleEndian.PutUint64(u64[:], off)
		buf = append(buf, u64[:]...)
		binary.LittleEndian.PutUint64(u64[:], uint64(len(s)))
		buf = append(buf, u64[:]...)
		off += uint64(len(s))
	}
	for _, s := range segs {
		buf = append(buf, s...)
	}
	return buf
}

// directory describes where each segment lives inside a recipe object.
type directory struct {
	fileID   string
	version  int
	segments []struct{ off, n uint64 }
}

func decodeDirectory(b []byte) (*directory, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("recipe: object too short")
	}
	if binary.LittleEndian.Uint32(b) != recipeMagic {
		return nil, fmt.Errorf("recipe: bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != wireVersion {
		return nil, fmt.Errorf("recipe: unsupported wire version %d", v)
	}
	nameLen := int(binary.LittleEndian.Uint32(b[8:]))
	if len(b) < 12+nameLen+8 {
		return nil, fmt.Errorf("recipe: truncated header")
	}
	d := &directory{fileID: string(b[12 : 12+nameLen])}
	p := 12 + nameLen
	d.version = int(binary.LittleEndian.Uint32(b[p:]))
	nSegs := int(binary.LittleEndian.Uint32(b[p+4:]))
	p += 8
	if len(b) < p+16*nSegs {
		return nil, fmt.Errorf("recipe: truncated directory")
	}
	d.segments = make([]struct{ off, n uint64 }, nSegs)
	for i := 0; i < nSegs; i++ {
		d.segments[i].off = binary.LittleEndian.Uint64(b[p:])
		d.segments[i].n = binary.LittleEndian.Uint64(b[p+8:])
		p += 16
	}
	return d, nil
}

// Decode parses a full recipe object.
func Decode(b []byte) (*Recipe, error) {
	d, err := decodeDirectory(b)
	if err != nil {
		return nil, err
	}
	r := &Recipe{FileID: d.fileID, Version: d.version}
	if len(d.segments) > 0 {
		r.Segments = make([]Segment, 0, len(d.segments))
	}
	for i, s := range d.segments {
		// Checked without s.off+s.n, which can wrap on hostile directories.
		if s.off > uint64(len(b)) || s.n > uint64(len(b))-s.off {
			return nil, fmt.Errorf("recipe: segment %d out of range", i)
		}
		seg, err := DecodeSegment(b[s.off : s.off+s.n])
		if err != nil {
			return nil, err
		}
		r.Segments = append(r.Segments, *seg)
	}
	return r, nil
}

// EncodeIndex serialises a recipe index, samples in fingerprint order so
// that the same index is the same bytes.
func EncodeIndex(idx *Index) []byte {
	buf := make([]byte, 0, 16+len(idx.FileID)+len(idx.Samples)*(fingerprint.Size+4))
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	put32(indexMagic)
	put32(uint32(len(idx.FileID)))
	buf = append(buf, idx.FileID...)
	put32(uint32(idx.Version))
	put32(uint32(len(idx.Samples)))
	fps := make([]fingerprint.FP, 0, len(idx.Samples))
	for fp := range idx.Samples {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return bytes.Compare(fps[i][:], fps[j][:]) < 0 })
	for _, fp := range fps {
		buf = append(buf, fp[:]...)
		put32(uint32(idx.Samples[fp]))
	}
	return buf
}

// DecodeIndex parses a recipe index.
func DecodeIndex(b []byte) (*Index, error) {
	if len(b) < 8 {
		return nil, fmt.Errorf("recipe: index too short")
	}
	if binary.LittleEndian.Uint32(b) != indexMagic {
		return nil, fmt.Errorf("recipe: bad index magic")
	}
	nameLen := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) < 8+nameLen+8 {
		return nil, fmt.Errorf("recipe: truncated index header")
	}
	idx := &Index{FileID: string(b[8 : 8+nameLen])}
	p := 8 + nameLen
	idx.Version = int(binary.LittleEndian.Uint32(b[p:]))
	n := int(binary.LittleEndian.Uint32(b[p+4:]))
	p += 8
	if len(b) != p+n*(fingerprint.Size+4) {
		return nil, fmt.Errorf("recipe: index size mismatch")
	}
	idx.Samples = make(map[fingerprint.FP]int32, n)
	for i := 0; i < n; i++ {
		var fp fingerprint.FP
		copy(fp[:], b[p:])
		idx.Samples[fp] = int32(binary.LittleEndian.Uint32(b[p+fingerprint.Size:]))
		p += fingerprint.Size + 4
	}
	return idx, nil
}
