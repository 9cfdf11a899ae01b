package container

import (
	"fmt"
	"sort"
	"sync/atomic"

	"slimstore/internal/pipe"
)

// This file is the container read: one GET per part of the payload, or the
// byte ranges of it a caller asks for, a request in each part each touches.
// The paper motivates partial reads (§IV, §VI): after reverse deduplication
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
// payload, one GET per part. Otherwise it fetches exactly the given spans —
// inside the payload (never the footer), ascending and disjoint — with one
// ranged read each, clipped at part boundaries, and keeps each result as it
// arrived: chunk offsets stay the payload's, nothing is copied together.
// Either way the requests run up to the view's gate width at a time (Gated).
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
		if c, _, err = s.readWhole(m); err != nil {
			return nil, err
		}
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
		if c.parts, err = s.fetchSpans(m, spans); err != nil {
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

// request is one call of a read: payload bytes [off, off+n) of part object
// part, by a ranged read, or by one GET of the part object when whole.
type request struct {
	part   int
	off, n int64
	whole  bool
}

// readWhole fetches every part of m's payload, one GET each, into Data (one
// part) or parts, capacity clipped. footer is the last part's, nil when a
// part object is not the length m gives it (a chunk past it then fails).
func (s *Store) readWhole(m *Meta) (c *Container, footer []byte, err error) {
	reqs := make([]request, m.NumParts())
	for i := range reqs {
		off, end := m.PartRange(i)
		reqs[i] = request{part: i, off: off, n: end - off, whole: true}
	}
	c = &Container{Meta: *m}
	if c.parts, err = s.fetch(m, reqs); err != nil {
		return nil, nil, err
	}
	last := &c.parts[len(c.parts)-1]
	if n := reqs[len(reqs)-1].n; int64(len(last.data)) == n+FooterSize {
		last.data, footer = last.data[:n:n], last.data[n:]
	}
	for i := range c.parts {
		if int64(len(c.parts[i].data)) != reqs[i].n {
			footer = nil
		}
	}
	if len(c.parts) == 1 {
		c.Data, c.parts = c.parts[0].data, nil
	}
	return c, footer, nil
}

// fetchSpans issues one ranged read per span and part it touches.
func (s *Store) fetchSpans(m *Meta, spans []Span) ([]part, error) {
	var reqs []request
	for _, sp := range spans {
		end := sp.Off + sp.Len
		for off, i := sp.Off, sort.Search(len(m.Parts), func(j int) bool { return int64(m.Parts[j]) > sp.Off }); off < end; i++ {
			_, pend := m.PartRange(i)
			reqs = append(reqs, request{part: i, off: off, n: min(end, pend) - off})
			off = min(end, pend)
		}
	}
	return s.fetch(m, reqs)
}

// fetch issues reqs, a gate token held across each, and returns what each
// fetched at its payload offset. The first failure stops the requests not
// yet issued; a ranged read must return its n bytes.
func (s *Store) fetch(m *Meta, reqs []request) ([]part, error) {
	out := make([]part, len(reqs))
	var failed atomic.Bool
	err := pipe.FanOut(len(reqs), s.width(), func(i int) error {
		q := &reqs[i]
		s.enter(q.n)
		if failed.Load() {
			s.leave()
			return nil
		}
		var data []byte
		var err error
		key, at := PartKey(m.Payload, q.part), q.off
		if q.whole {
			data, err = s.oss.Get(key)
		} else {
			start, _ := m.PartRange(q.part)
			at -= start
			data, err = s.oss.GetRange(key, at, q.n)
		}
		s.leave()
		switch {
		case err != nil:
			err = fmt.Errorf("container %s: read %s [%d,+%d): %w", m.ID, key, at, q.n, err)
		case !q.whole && int64(len(data)) != q.n:
			err = &CorruptError{Container: m.ID,
				Detail: fmt.Sprintf("ranged read of %s [%d,+%d) returned %d bytes", key, at, q.n, len(data))}
		}
		if err != nil {
			failed.Store(true)
			return err
		}
		out[i] = part{off: q.off, data: data[:len(data):len(data)]}
		return nil
	})
	return out, err
}
