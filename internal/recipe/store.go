package recipe

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"slimstore/internal/container"
	"slimstore/internal/oss"
)

// OSS key namespaces.
const (
	recipePrefix  = "recipes/"
	catalogPrefix = "catalog/"
)

func fileKey(fileID string) string { return hex.EncodeToString([]byte(fileID)) }

func recipeKey(fileID string, version int) string {
	return fmt.Sprintf("%s%s/%08d.recipe", recipePrefix, fileKey(fileID), version)
}
func indexKey(fileID string, version int) string {
	return fmt.Sprintf("%s%s/%08d.index", recipePrefix, fileKey(fileID), version)
}
func infoKey(fileID string, version int) string {
	return fmt.Sprintf("%s%s/%08d.info", catalogPrefix, fileKey(fileID), version)
}

// Store persists recipes, recipe indexes and the version catalog on OSS.
type Store struct {
	oss oss.Store
}

// NewStore opens a recipe store over an OSS store.
func NewStore(s oss.Store) *Store { return &Store{oss: s} }

// PutRecipe persists a full recipe and returns the serialized size.
func (s *Store) PutRecipe(r *Recipe) (int, error) {
	b := Encode(r)
	if err := s.oss.Put(recipeKey(r.FileID, r.Version), b); err != nil {
		return 0, fmt.Errorf("recipe: put %s v%d: %w", r.FileID, r.Version, err)
	}
	return len(b), nil
}

// GetRecipe fetches a full recipe.
func (s *Store) GetRecipe(fileID string, version int) (*Recipe, error) {
	b, err := s.oss.Get(recipeKey(fileID, version))
	if err != nil {
		return nil, fmt.Errorf("recipe: get %s v%d: %w", fileID, version, err)
	}
	r, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("recipe: get %s v%d: %w", fileID, version, err)
	}
	return r, nil
}

// DeleteRecipe removes a recipe and its index.
func (s *Store) DeleteRecipe(fileID string, version int) error {
	if err := s.oss.Delete(recipeKey(fileID, version)); err != nil {
		return err
	}
	return s.oss.Delete(indexKey(fileID, version))
}

// Ref names one version of one file.
type Ref struct {
	FileID  string
	Version int
}

// Stored lists the versions that have a recipe or a recipe index object,
// each once, in key order. What the catalog lists, not this, is what
// exists: a backup puts its recipe before its catalog entry, a deletion
// deletes the entry first.
func (s *Store) Stored() ([]Ref, error) {
	keys, err := s.oss.List(recipePrefix)
	if err != nil {
		return nil, fmt.Errorf("recipe: list recipes: %w", err)
	}
	var out []Ref
	for _, k := range keys {
		rest := strings.TrimPrefix(k, recipePrefix)
		enc, name, ok := strings.Cut(rest, "/")
		raw, herr := hex.DecodeString(enc)
		v, verr := strconv.Atoi(strings.TrimSuffix(strings.TrimSuffix(name, ".recipe"), ".index"))
		if !ok || herr != nil || verr != nil {
			continue
		}
		if r := (Ref{string(raw), v}); len(out) == 0 || out[len(out)-1] != r {
			out = append(out, r)
		}
	}
	return out, nil
}

// SegmentReader fetches individual segment recipes of one file version
// with ranged reads, without downloading the whole recipe — the lightweight
// prefetch L-node performs per matched sample (paper §IV-A STEP 2). The
// bytes OpenSegments read to find the directory stay with the reader, and a
// segment lying wholly inside them is decoded from memory: a recipe smaller
// than the prefix costs one request however many of its segments are
// fetched, a larger one 1 + (segments beyond the prefix). Safe for
// concurrent Fetch calls.
type SegmentReader struct {
	store *Store
	key   string
	dir   *directory
	head  []byte // the object's bytes from offset 0, as far as they were read
}

// segmentHeadBytes is the prefix OpenSegments reads: the directory of any
// ordinary recipe, and with it the first segments (all of a small file's).
const segmentHeadBytes = 64 << 10

// OpenSegments reads the recipe directory (header) of a version and keeps
// the prefix it came in.
func (s *Store) OpenSegments(fileID string, version int) (*SegmentReader, error) {
	key := recipeKey(fileID, version)
	// The directory is at the head of the object. Fetch a generous fixed
	// prefix first; fall back to the whole object if the header is larger.
	head, err := s.oss.GetRange(key, 0, segmentHeadBytes)
	if err != nil {
		return nil, fmt.Errorf("recipe: open segments %s v%d: %w", fileID, version, err)
	}
	d, err := decodeDirectory(head)
	if err != nil {
		// Retry with the full object (huge directories); head must be the
		// bytes the directory was decoded from.
		if head, err = s.oss.Get(key); err != nil {
			return nil, fmt.Errorf("recipe: open segments %s v%d: %w", fileID, version, err)
		}
		if d, err = decodeDirectory(head); err != nil {
			return nil, fmt.Errorf("recipe: open segments %s v%d: %w", fileID, version, err)
		}
	}
	return &SegmentReader{store: s, key: key, dir: d, head: head}, nil
}

// NumSegments returns how many segments the recipe has.
func (r *SegmentReader) NumSegments() int { return len(r.dir.segments) }

// Fetch retrieves one segment recipe by number: from the retained prefix
// when the segment lies inside it, with one ranged read otherwise.
func (r *SegmentReader) Fetch(seg int) (*Segment, error) {
	if seg < 0 || seg >= len(r.dir.segments) {
		return nil, fmt.Errorf("recipe: segment %d out of range [0,%d)", seg, len(r.dir.segments))
	}
	s := r.dir.segments[seg]
	// Checked without s.off+s.n, which can wrap on hostile directories.
	if s.off <= uint64(len(r.head)) && s.n <= uint64(len(r.head))-s.off {
		return DecodeSegment(r.head[s.off : s.off+s.n])
	}
	b, err := r.store.oss.GetRange(r.key, int64(s.off), int64(s.n))
	if err != nil {
		return nil, fmt.Errorf("recipe: fetch segment %d: %w", seg, err)
	}
	return DecodeSegment(b)
}

// PutIndex persists a recipe index.
func (s *Store) PutIndex(idx *Index) error {
	if err := s.oss.Put(indexKey(idx.FileID, idx.Version), EncodeIndex(idx)); err != nil {
		return fmt.Errorf("recipe: put index %s v%d: %w", idx.FileID, idx.Version, err)
	}
	return nil
}

// GetIndex fetches a recipe index.
func (s *Store) GetIndex(fileID string, version int) (*Index, error) {
	b, err := s.oss.Get(indexKey(fileID, version))
	if err != nil {
		return nil, fmt.Errorf("recipe: get index %s v%d: %w", fileID, version, err)
	}
	idx, err := DecodeIndex(b)
	if err != nil {
		return nil, fmt.Errorf("recipe: get index %s v%d: %w", fileID, version, err)
	}
	return idx, nil
}

// ---------------------------------------------------------------------------
// Version catalog.

// VersionInfo is the catalog entry for one backup version of one file.
type VersionInfo struct {
	FileID      string
	Version     int
	LogicalSize int64 // restored size
	StoredSize  int64 // bytes newly written to containers by this version
	NumChunks   int
	// Containers referenced by this version, ascending.
	Containers []container.ID
	// Garbage containers associated with this version during backup
	// (paper §VI-B): containers referenced by the previous version but not
	// by this one, plus sparse containers emptied by compaction. They are
	// swept when this version is deleted.
	Garbage []container.ID
}

// infoFormat opens every catalog entry: "SLV" and the entry's format, 1.
// The entry commits a backup and a deletion and decides liveness, so it
// ends in a CRC32C of everything before it, and a decoder takes it whole
// or not at all.
const infoFormat = uint32(0x01564C53)

// EncodeInfo serialises a VersionInfo, little-endian:
//
//	format | name len, name | version | logical size u64 | stored size u64
//	| chunks | n, n container IDs u64 | m, m garbage IDs u64 | CRC32C
func EncodeInfo(v *VersionInfo) []byte {
	buf := make([]byte, 0, 48+len(v.FileID)+8*(len(v.Containers)+len(v.Garbage)))
	buf = binary.LittleEndian.AppendUint32(buf, infoFormat)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.FileID)))
	buf = append(buf, v.FileID...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.Version))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.LogicalSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.StoredSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.NumChunks))
	for _, ids := range [][]container.ID{v.Containers, v.Garbage} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, container.ChecksumOf(buf))
}

// DecodeInfo parses a VersionInfo, refusing one of another format, of
// another length than its counts say, or whose checksum does not match.
func DecodeInfo(b []byte) (*VersionInfo, error) {
	p := 0
	u32 := func() (uint32, error) {
		if len(b)-p < 4 {
			return 0, fmt.Errorf("recipe: version info truncated at %d of %d bytes", p, len(b))
		}
		p += 4
		return binary.LittleEndian.Uint32(b[p-4:]), nil
	}
	// ids reads a count and that many IDs, checking the length before the
	// count sizes an allocation.
	ids := func() ([]container.ID, error) {
		n, err := u32()
		if err != nil {
			return nil, err
		}
		if uint64(len(b)-p) < 8*uint64(n) {
			return nil, fmt.Errorf("recipe: version info claims %d IDs in %d bytes", n, len(b)-p)
		}
		out := make([]container.ID, n)
		for i := range out {
			out[i] = container.ID(binary.LittleEndian.Uint64(b[p:]))
			p += 8
		}
		return out, nil
	}
	format, err := u32()
	if err != nil {
		return nil, err
	}
	if format != infoFormat {
		return nil, fmt.Errorf("recipe: version info format %08x, want %08x", format, infoFormat)
	}
	nameLen, err := u32()
	if err != nil {
		return nil, err
	}
	if uint64(len(b)-p) < uint64(nameLen)+28 {
		return nil, fmt.Errorf("recipe: version info truncated in its header")
	}
	v := &VersionInfo{FileID: string(b[p : p+int(nameLen)])}
	p += int(nameLen)
	v.Version = int(binary.LittleEndian.Uint32(b[p:]))
	v.LogicalSize = int64(binary.LittleEndian.Uint64(b[p+4:]))
	v.StoredSize = int64(binary.LittleEndian.Uint64(b[p+12:]))
	v.NumChunks = int(binary.LittleEndian.Uint32(b[p+20:]))
	p += 24
	if v.Containers, err = ids(); err != nil {
		return nil, err
	}
	if v.Garbage, err = ids(); err != nil {
		return nil, err
	}
	body := p
	sum, err := u32()
	if err != nil {
		return nil, err
	}
	if p != len(b) {
		return nil, fmt.Errorf("recipe: %d trailing bytes after version info", len(b)-p)
	}
	if got := container.ChecksumOf(b[:body]); got != sum {
		return nil, fmt.Errorf("recipe: version info checksum %08x, want %08x", got, sum)
	}
	return v, nil
}

// PutInfo persists a catalog entry.
func (s *Store) PutInfo(v *VersionInfo) error {
	if err := s.oss.Put(infoKey(v.FileID, v.Version), EncodeInfo(v)); err != nil {
		return fmt.Errorf("recipe: put info %s v%d: %w", v.FileID, v.Version, err)
	}
	return nil
}

// GetInfo fetches a catalog entry.
func (s *Store) GetInfo(fileID string, version int) (*VersionInfo, error) {
	b, err := s.oss.Get(infoKey(fileID, version))
	if err != nil {
		return nil, fmt.Errorf("recipe: get info %s v%d: %w", fileID, version, err)
	}
	v, err := DecodeInfo(b)
	if err != nil {
		return nil, fmt.Errorf("recipe: get info %s v%d: %w", fileID, version, err)
	}
	return v, nil
}

// DeleteInfo removes a catalog entry.
func (s *Store) DeleteInfo(fileID string, version int) error {
	return s.oss.Delete(infoKey(fileID, version))
}

// Versions lists the versions of a file in ascending order.
func (s *Store) Versions(fileID string) ([]int, error) {
	keys, err := s.oss.List(catalogPrefix + fileKey(fileID) + "/")
	if err != nil {
		return nil, fmt.Errorf("recipe: versions of %s: %w", fileID, err)
	}
	var out []int
	for _, k := range keys {
		base := k[strings.LastIndexByte(k, '/')+1:]
		base = strings.TrimSuffix(base, ".info")
		v, err := strconv.Atoi(base)
		if err == nil {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// LatestVersion returns the newest version of fileID, or -1, false when the
// file has never been backed up.
func (s *Store) LatestVersion(fileID string) (int, bool, error) {
	vs, err := s.Versions(fileID)
	if err != nil {
		return -1, false, err
	}
	if len(vs) == 0 {
		return -1, false, nil
	}
	return vs[len(vs)-1], true, nil
}

// Files lists every file ID present in the catalog.
func (s *Store) Files() ([]string, error) {
	keys, err := s.oss.List(catalogPrefix)
	if err != nil {
		return nil, fmt.Errorf("recipe: list files: %w", err)
	}
	seen := make(map[string]struct{})
	var out []string
	for _, k := range keys {
		rest := strings.TrimPrefix(k, catalogPrefix)
		i := strings.IndexByte(rest, '/')
		if i < 0 {
			continue
		}
		enc := rest[:i]
		if _, dup := seen[enc]; dup {
			continue
		}
		seen[enc] = struct{}{}
		raw, err := hex.DecodeString(enc)
		if err != nil {
			continue
		}
		out = append(out, string(raw))
	}
	sort.Strings(out)
	return out, nil
}
