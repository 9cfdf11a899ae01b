// Package simindex implements the similar file index (paper §III-B): it
// stores representative fingerprints of each backed-up file so an L-node
// can find a historical version or similar file for an incoming stream
// whose name lookup failed (§IV-A STEP 1).
//
// Following Broder's theorem, the resemblance of two files is estimated
// from the resemblance of small random samples. Each file version keeps a
// bounded min-wise sketch (the K smallest sampled fingerprint values);
// the file maximising sketch overlap is returned as the similar file.
//
// The index resides in the storage layer (one small OSS object per file
// version) and is mirrored in memory so queries cost no OSS round trips;
// L-nodes stay stateless — any node can reload the mirror from OSS. The
// mirror is loaded by the first call that reads it, not at Open: a handle
// that only restores never asks for a sketch.
package simindex

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/pipe"
)

// DefaultSketchSize is the number of min-hash values kept per file version.
const DefaultSketchSize = 32

// Prefix is the OSS namespace of the index.
const Prefix = "simindex/"

// Sketch is a min-wise sample of a file's fingerprint set: the K smallest
// 64-bit foldings, ascending and deduplicated.
type Sketch []uint64

// SketchOf builds a sketch of size at most k from sampled fingerprints.
func SketchOf(fps []fingerprint.FP, k int) Sketch {
	if k <= 0 {
		k = DefaultSketchSize
	}
	vals := make([]uint64, 0, len(fps))
	for _, fp := range fps {
		vals = append(vals, fp.Uint64())
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	out := make(Sketch, 0, k)
	var prev uint64
	for i, v := range vals {
		if i > 0 && v == prev {
			continue
		}
		out = append(out, v)
		prev = v
		if len(out) == k {
			break
		}
	}
	return out
}

// Resemblance estimates the Jaccard similarity of the sets behind two
// sketches by their overlap within the union's K smallest values.
func Resemblance(a, b Sketch) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	k := len(a)
	if len(b) > k {
		k = len(b)
	}
	// Merge the two sorted sketches, counting matches among the k smallest
	// union values.
	i, j, seen, match := 0, 0, 0, 0
	for seen < k && i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			match++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
		seen++
	}
	return float64(match) / float64(k)
}

// Entry is one indexed file version.
type Entry struct {
	FileID  string
	Version int
	Sketch  Sketch
}

func entryKey(fileID string, version int) string {
	return fmt.Sprintf("%s%x/%08d", Prefix, fileID, version)
}

func encodeEntry(e *Entry) []byte {
	buf := make([]byte, 0, 8+len(e.FileID)+8*len(e.Sketch))
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.FileID)))
	buf = append(buf, tmp[:4]...)
	buf = append(buf, e.FileID...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(e.Version))
	buf = append(buf, tmp[:4]...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.Sketch)))
	buf = append(buf, tmp[:4]...)
	for _, v := range e.Sketch {
		binary.LittleEndian.PutUint64(tmp[:], v)
		buf = append(buf, tmp[:]...)
	}
	return buf
}

func decodeEntry(b []byte) (*Entry, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("simindex: entry too short")
	}
	nameLen := int(binary.LittleEndian.Uint32(b))
	if len(b) < 4+nameLen+8 {
		return nil, fmt.Errorf("simindex: truncated entry")
	}
	e := &Entry{FileID: string(b[4 : 4+nameLen])}
	p := 4 + nameLen
	e.Version = int(binary.LittleEndian.Uint32(b[p:]))
	n := int(binary.LittleEndian.Uint32(b[p+4:]))
	p += 8
	if len(b) != p+8*n {
		return nil, fmt.Errorf("simindex: entry size mismatch")
	}
	e.Sketch = make(Sketch, n)
	for i := 0; i < n; i++ {
		e.Sketch[i] = binary.LittleEndian.Uint64(b[p:])
		p += 8
	}
	return e, nil
}

// Index is the similar file index. Safe for concurrent use.
type Index struct {
	store oss.Store

	mu    sync.RWMutex
	files map[string]map[int]*Entry // file → version → entry; nil until loaded
}

// add puts e in the loaded mirror. The caller holds the write lock.
func (x *Index) add(e *Entry) {
	if x.files[e.FileID] == nil {
		x.files[e.FileID] = make(map[int]*Entry)
	}
	x.files[e.FileID][e.Version] = e
}

// loadWidth is how many sketch objects the load reads at once.
const loadWidth = 16

// Open returns the index over store. It asks the store for nothing: the
// mirror is read by the first Query.
func Open(store oss.Store) (*Index, error) {
	return &Index{store: store}, nil
}

// load reads the mirror if no call has yet: the namespace listed, then
// every sketch in one wave, all under the write lock — so a Put or Remove
// that runs beside the load finds the mirror either absent (and leaves its
// key to the listing) or complete (and updates it). A failed load leaves
// the mirror absent for the next call to retry.
func (x *Index) load() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.files != nil {
		return nil
	}
	keys, err := x.store.List(Prefix)
	if err != nil {
		return fmt.Errorf("simindex: load: %w", err)
	}
	read := make([]*Entry, len(keys))
	err = pipe.FanOut(len(keys), loadWidth, func(i int) error {
		b, err := x.store.Get(keys[i])
		if errors.Is(err, oss.ErrNotFound) {
			return nil // removed since the listing
		}
		if err == nil {
			read[i], err = decodeEntry(b)
		}
		if err != nil {
			return fmt.Errorf("simindex: load %s: %w", keys[i], err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	x.files = make(map[string]map[int]*Entry)
	for _, e := range read {
		if e != nil {
			x.add(e)
		}
	}
	return nil
}

// Put indexes a file version's sketch, persisting it to OSS. Before the
// mirror is loaded only the store is written: the load will list the key.
func (x *Index) Put(fileID string, version int, sk Sketch) error {
	e := &Entry{FileID: fileID, Version: version, Sketch: sk}
	if err := x.store.Put(entryKey(fileID, version), encodeEntry(e)); err != nil {
		return fmt.Errorf("simindex: put %s v%d: %w", fileID, version, err)
	}
	x.mu.Lock()
	if x.files != nil {
		x.add(e)
	}
	x.mu.Unlock()
	return nil
}

// Remove drops a file version from the index (from the store alone while
// the mirror is not loaded).
func (x *Index) Remove(fileID string, version int) error {
	if err := x.store.Delete(entryKey(fileID, version)); err != nil {
		return fmt.Errorf("simindex: remove %s v%d: %w", fileID, version, err)
	}
	x.mu.Lock()
	delete(x.files[fileID], version)
	x.mu.Unlock()
	return nil
}

// Stored lists the file versions that have a sketch in the store, read
// from the namespace's listing alone (Sketch nil), whatever the mirror holds.
func (x *Index) Stored() ([]Entry, error) {
	keys, err := x.store.List(Prefix)
	if err != nil {
		return nil, fmt.Errorf("simindex: list: %w", err)
	}
	var out []Entry
	for _, k := range keys {
		enc, ver, ok := strings.Cut(strings.TrimPrefix(k, Prefix), "/")
		raw, herr := hex.DecodeString(enc)
		v, verr := strconv.Atoi(ver)
		if ok && herr == nil && verr == nil {
			out = append(out, Entry{FileID: string(raw), Version: v})
		}
	}
	return out, nil
}

// Match is a similarity query result.
type Match struct {
	FileID  string
	Version int
	Score   float64
}

// Query returns the most similar indexed file version for a sketch, with
// ok=false when nothing scores above minScore. When several versions tie,
// the newest version of the lexicographically smallest file wins, so
// results are deterministic. The error is the mirror's load failing.
func (x *Index) Query(sk Sketch, minScore float64) (m Match, ok bool, err error) {
	if err := x.load(); err != nil {
		return Match{}, false, err
	}
	x.mu.RLock()
	defer x.mu.RUnlock()
	best := Match{Score: -1}
	for _, vs := range x.files {
		for _, e := range vs {
			s := Resemblance(sk, e.Sketch)
			if s < minScore {
				continue
			}
			if s > best.Score ||
				(s == best.Score && (e.FileID < best.FileID ||
					e.FileID == best.FileID && e.Version > best.Version)) {
				best = Match{FileID: e.FileID, Version: e.Version, Score: s}
			}
		}
	}
	return best, best.Score >= 0, nil
}

// Latest returns the newest version of fileID the mirror holds a sketch
// of, known=false when it holds none or is not loaded. It reads nothing
// from the store and never loads the mirror: a backup's guess at its base
// (lnode), which the catalog listing confirms or overrules.
func (x *Index) Latest(fileID string) (v int, known bool) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	v = -1
	for ver := range x.files[fileID] {
		v, known = max(v, ver), true
	}
	return v, known
}
