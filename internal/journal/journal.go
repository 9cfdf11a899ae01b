// Package journal provides the intent journal that makes the G-node's
// multi-object storage reorganisations crash-consistent. OSS offers only
// single-object atomicity, but compaction and version collection mutate
// many objects (containers, recipes, catalog entries, index state); a
// crash mid-operation would otherwise strand the repo in a state no
// invariant describes.
//
// The protocol is write-ahead intent logging with a single commit point:
//
//  1. Prepare: write all NEW objects (fresh containers) — nothing
//     references them yet, so a crash here leaks only unreferenced data
//     that FullSweep reclaims.
//  2. Commit: put one journal record describing the remaining mutations.
//     This single put is the atomic commit point.
//  3. Apply: perform the mutations (index repoints, recipe/catalog swaps,
//     deletions). Every step is idempotent.
//  4. Remove the record.
//
// core.OpenRepo replays surviving records before any new work: a record's
// presence means the operation committed, so replay re-runs Apply to roll
// it forward. A one-container rewrite needs no record: its new payload goes
// beside the old under a fresh ID and one meta put switches to it
// (core.WriteRebuilt), so every crash point is before or after that put.
package journal

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

// Prefix is the OSS key namespace for journal records.
const Prefix = "journal/"

// Kind identifies which storage reorganisation a record describes.
type Kind string

const (
	// KindSCC commits a sparse-container-compaction: chunks already copied
	// into new containers; the record drives index repoint, recipe/catalog
	// update, and dead-marking of the drained sources.
	KindSCC Kind = "scc"
	// KindGC commits a version deletion: the record preserves the garbage
	// list so the sweep can resume after the catalog entry is gone.
	KindGC Kind = "gc"
)

// Record is one journaled intent. Only the fields relevant to its Kind
// are populated; container IDs serialise as their uint64 values.
type Record struct {
	Seq  uint64 `json:"seq"`
	Kind Kind   `json:"kind"`

	// SCC and GC: the version being reorganised.
	FileID  string `json:"file_id,omitempty"`
	Version int    `json:"version,omitempty"`

	// SCC: fingerprint (hex) -> container the chunk moved to; the drained
	// sparse sources; the freshly written targets.
	Moved  map[string]uint64 `json:"moved,omitempty"`
	Sparse []uint64          `json:"sparse,omitempty"`
	New    []uint64          `json:"new,omitempty"`

	// GC: containers associated with the deleted version as garbage.
	Garbage []uint64 `json:"garbage,omitempty"`
}

// SetMoved records a fingerprint→container relocation map.
func (r *Record) SetMoved(m map[fingerprint.FP]container.ID) {
	r.Moved = make(map[string]uint64, len(m))
	for fp, id := range m {
		r.Moved[fp.String()] = uint64(id)
	}
}

// MovedFPs decodes the relocation map.
func (r *Record) MovedFPs() (map[fingerprint.FP]container.ID, error) {
	out := make(map[fingerprint.FP]container.ID, len(r.Moved))
	for s, id := range r.Moved {
		fp, err := fingerprint.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("journal: record %d: bad fingerprint %q: %w", r.Seq, s, err)
		}
		out[fp] = container.ID(id)
	}
	return out, nil
}

// IDs converts a serialised container-ID list.
func IDs(raw []uint64) []container.ID {
	out := make([]container.ID, len(raw))
	for i, v := range raw {
		out[i] = container.ID(v)
	}
	return out
}

// RawIDs converts a container-ID list for serialisation.
func RawIDs(ids []container.ID) []uint64 {
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	return out
}

// Store persists journal records on OSS. It is safe for concurrent use;
// sequence numbers resume after the largest existing record.
type Store struct {
	oss  oss.Store
	next atomic.Uint64
}

// Open opens the journal namespace on an OSS store. pending is what List
// would return now — the records earlier processes left behind, in commit
// order — so that a caller who replays at open lists the namespace once.
func Open(s oss.Store) (js *Store, pending []string, err error) {
	js = &Store{oss: s}
	if pending, err = js.List(); err != nil {
		return nil, nil, err
	}
	if n := len(pending); n > 0 {
		max, _ := parseKey(pending[n-1])
		js.next.Store(max)
	}
	return js, pending, nil
}

func key(seq uint64) string { return fmt.Sprintf("%s%016d.json", Prefix, seq) }

func parseKey(k string) (uint64, bool) {
	name := strings.TrimSuffix(strings.TrimPrefix(k, Prefix), ".json")
	seq, err := strconv.ParseUint(name, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Commit assigns the record a sequence number and durably writes it. The
// put is the operation's atomic commit point; Commit returns the key to
// Remove once the operation's apply phase completes.
func (s *Store) Commit(r *Record) (string, error) {
	r.Seq = s.next.Add(1)
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("journal: encode record %d: %w", r.Seq, err)
	}
	k := key(r.Seq)
	if err := s.oss.Put(k, b); err != nil {
		return "", fmt.Errorf("journal: commit record %d: %w", r.Seq, err)
	}
	return k, nil
}

// Remove deletes a record after its apply phase completes. Removing an
// already-removed record is not an error (replay races a crashed peer).
func (s *Store) Remove(key string) error {
	if err := s.oss.Delete(key); err != nil {
		return fmt.Errorf("journal: remove %s: %w", key, err)
	}
	return nil
}

// Get fetches and decodes one record.
func (s *Store) Get(key string) (*Record, error) {
	b, err := s.oss.Get(key)
	if err != nil {
		return nil, fmt.Errorf("journal: get %s: %w", key, err)
	}
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("journal: decode %s: %w", key, err)
	}
	return &r, nil
}

// List returns the keys of every surviving record in commit order.
func (s *Store) List() ([]string, error) {
	keys, err := s.oss.List(Prefix)
	if err != nil {
		return nil, fmt.Errorf("journal: list: %w", err)
	}
	var out []string
	seqs := make(map[string]uint64, len(keys))
	for _, k := range keys {
		if seq, ok := parseKey(k); ok {
			out = append(out, k)
			seqs[k] = seq
		}
	}
	sort.Slice(out, func(a, b int) bool { return seqs[out[a]] < seqs[out[b]] })
	return out, nil
}
