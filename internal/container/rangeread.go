package container

import (
	"fmt"
	"sync/atomic"

	"slimstore/internal/pipe"
)

// This file is the container read: one whole-object GET, or the byte
// ranges of the data object a caller asks for, each its own request. The
// paper motivates partial reads (§IV, §VI): after reverse deduplication
// and SCC, old-version restores reference a handful of live chunks inside
// otherwise-stale containers, and reading the full object per container is
// pure read amplification. Which ranges to read — whether a full read is
// cheaper after all, and where a long read is cut so that several channels
// share it — is decided by the planner in internal/cache; this layer
// executes a span list faithfully and verifies what it fetched.

// Span is one byte range of a container's data object, fetched with one
// request. Chunks lists the indexes into Meta.Chunks whose payload
// [Offset, Offset+Size) lies entirely inside [Off, Off+Len), in ascending
// offset order.
type Span struct {
	Off    int64
	Len    int64
	Chunks []int
}

// ReadSpans is the one container read. With no spans it fetches the whole
// data object in one GET. Otherwise it fetches exactly the given spans —
// inside the payload (never the v2 footer), ascending and disjoint — with
// one ranged read each, up to the view's gate width at a time (Gated), and
// keeps each result as it arrived: chunk offsets stay the data object's,
// nothing is copied together.
//
// What comes back depends on what was fetched, not on how many requests it
// took. Spans that tile the payload are a whole read in pieces: like the
// one-GET read they return the full container, every live chunk verified
// whatever the spans' Chunks say, fit for the node-wide shared cache.
// Corruption in live data is a *CorruptError; rot confined to deleted
// regions does not fail a whole read (scrub clears it), which is why no read
// computes the footer's whole-payload CRC — ReadRaw reports it. Any other
// span list returns a partial container of exactly the chunks the spans
// list, each verified; it answers Get/ChunkData for those only, so callers
// derive the spans from the requests they will serve (cache.Plan), and it
// never enters the shared cache.
//
// A failed or short request fails the read with the container and the byte
// range named; requests still waiting for a gate token are then not issued,
// and every one issued has returned before ReadSpans does. The result is
// read-only (see Container).
func (s *Store) ReadSpans(id ID, spans []Span) (*Container, error) {
	m, err := s.ReadMeta(id)
	if err != nil {
		return nil, err
	}
	c := &Container{Meta: *m}
	whole := len(spans) == 0
	if whole {
		s.enter()
		raw, err := s.oss.Get(DataKey(m.Payload))
		s.leave()
		if err != nil {
			return nil, fmt.Errorf("container %s: read data: %w", id, err)
		}
		c.Data, _ = splitData(m, raw)
	} else {
		var listed []ChunkMeta
		next := int64(0) // where the spans so far end: whole while they tile
		whole = true
		for si := range spans {
			sp := &spans[si]
			if sp.Off < next || sp.Len <= 0 || sp.Off+sp.Len > int64(m.DataSize) {
				return nil, fmt.Errorf("container %s: span [%d,+%d) out of order or outside payload of %d bytes",
					id, sp.Off, sp.Len, m.DataSize)
			}
			whole = whole && sp.Off == next
			next = sp.Off + sp.Len
			for _, ci := range sp.Chunks {
				if ci < 0 || ci >= len(m.Chunks) {
					return nil, fmt.Errorf("container %s: span chunk index %d out of %d", id, ci, len(m.Chunks))
				}
				cm := m.Chunks[ci]
				if int64(cm.Offset) < sp.Off || int64(cm.Offset)+int64(cm.Size) > next {
					return nil, fmt.Errorf("container %s: chunk %s [%d,+%d) escapes span [%d,+%d)",
						id, cm.FP.Short(), cm.Offset, cm.Size, sp.Off, sp.Len)
				}
				listed = append(listed, cm)
			}
		}
		if whole = whole && next == int64(m.DataSize); !whole {
			c.Meta.Chunks = listed
			c.Meta.buildFindIndex()
		}
		if c.parts, err = s.fetchParts(id, m.Payload, spans); err != nil {
			return nil, err
		}
	}
	for i := range c.Meta.Chunks {
		cm := &c.Meta.Chunks[i]
		if whole && cm.Deleted {
			continue
		}
		if verr := c.VerifyChunk(cm); verr != nil {
			if len(spans) > 0 {
				// Ranged bytes are not verified by the store beneath: a striped
				// tier serves a range of a rotted or stale shard as it lies, and
				// only the whole read meets the shards' own checksums and
				// reconstructs around them.
				return s.ReadSpans(id, nil)
			}
			return nil, fmt.Errorf("container %s: read data: %w", id, verr)
		}
	}
	return c, nil
}

// fetchParts issues one ranged read per span of container id's payload, a
// gate token held across each. The first failure stops the requests not yet
// issued.
func (s *Store) fetchParts(id, payload ID, spans []Span) ([]part, error) {
	parts := make([]part, len(spans))
	var failed atomic.Bool
	err := pipe.FanOut(len(spans), cap(s.gate), func(i int) error {
		sp := &spans[i]
		s.enter()
		if failed.Load() {
			s.leave()
			return nil
		}
		data, err := s.oss.GetRange(DataKey(payload), sp.Off, sp.Len)
		s.leave()
		if err == nil && int64(len(data)) != sp.Len {
			err = &CorruptError{Container: id,
				Detail: fmt.Sprintf("ranged read [%d,+%d) returned %d bytes", sp.Off, sp.Len, len(data))}
		} else if err != nil {
			err = fmt.Errorf("container %s: read span [%d,+%d): %w", id, sp.Off, sp.Len, err)
		}
		if err != nil {
			failed.Store(true)
			return err
		}
		parts[i] = part{off: sp.Off, data: data[:len(data):len(data)]}
		return nil
	})
	return parts, err
}
