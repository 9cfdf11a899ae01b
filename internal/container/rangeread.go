package container

import (
	"fmt"
)

// This file implements partial container reads: fetching only the byte
// spans of a data object that cover the chunks a restore actually needs,
// instead of the whole 4 MiB object. The paper motivates it (§IV, §VI):
// after reverse deduplication and SCC, old-version restores reference a
// handful of live chunks inside otherwise-stale containers, and reading
// the full object per container is pure read amplification. Which spans
// to read — and whether a full read is cheaper after all — is decided by
// the cost-model planner in internal/cache; this layer just executes a
// span list faithfully and verifies what it fetched.

// Span is one coalesced byte range of a container's data object. Chunks
// lists the indexes into Meta.Chunks whose payload [Offset, Offset+Size)
// lies entirely inside [Off, Off+Len), in ascending index order.
type Span struct {
	Off    int64
	Len    int64
	Chunks []int
}

// ReadSpans fetches only the given spans of a container's data object and
// returns a partial container holding exactly the covered chunks, with
// offsets remapped into the compact payload. Spans must be within the
// payload (never the v2 footer) and are fetched in slice order with one
// ranged OSS read each. For checksummed containers every covered chunk is
// verified against its CRC, mirroring Read's guarantee for the subset
// fetched; short ranged reads surface as *CorruptError.
//
// The returned container answers Get/ChunkData for covered chunks only —
// requests outside the span set fail, so callers must derive the span
// list from the same request sequence they will serve (see cache.Plan).
//
// With one span the partial container's Data is the ranged read's result
// itself; with several it is one allocation of exactly the spans' total
// length. Either way it is a plain garbage-collected value, read-only
// like every fetched container (see Container), that lives as long as
// something references it — the restore job's caches may keep sub-slices
// of it. Partial containers are never entered into the node-wide shared
// cache: they only answer the one job's requests.
func (s *Store) ReadSpans(id ID, spans []Span) (*Container, error) {
	m, err := s.ReadMeta(id)
	if err != nil {
		return nil, err
	}
	var total int64
	for si := range spans {
		sp := &spans[si]
		if sp.Off < 0 || sp.Len <= 0 || sp.Off+sp.Len > int64(m.DataSize) {
			return nil, fmt.Errorf("container %s: span [%d,+%d) outside payload of %d bytes",
				id, sp.Off, sp.Len, m.DataSize)
		}
		total += sp.Len
	}
	part := &Container{Meta: Meta{ID: m.ID, Version: m.Version}}
	if len(spans) > 1 {
		part.Data = make([]byte, 0, total)
	}
	for si := range spans {
		sp := &spans[si]
		data, err := s.oss.GetRange(dataKey(id), sp.Off, sp.Len)
		if err != nil {
			return nil, fmt.Errorf("container %s: read span [%d,+%d): %w", id, sp.Off, sp.Len, err)
		}
		if int64(len(data)) != sp.Len {
			return nil, &CorruptError{Container: id,
				Detail: fmt.Sprintf("ranged read [%d,+%d) returned %d bytes", sp.Off, sp.Len, len(data))}
		}
		base := int64(len(part.Data))
		if len(spans) == 1 {
			part.Data = data[:len(data):len(data)]
		} else {
			part.Data = append(part.Data, data...)
		}
		for _, ci := range sp.Chunks {
			if ci < 0 || ci >= len(m.Chunks) {
				return nil, fmt.Errorf("container %s: span chunk index %d out of %d", id, ci, len(m.Chunks))
			}
			cm := m.Chunks[ci]
			if int64(cm.Offset) < sp.Off || int64(cm.Offset)+int64(cm.Size) > sp.Off+sp.Len {
				return nil, fmt.Errorf("container %s: chunk %s [%d,+%d) escapes span [%d,+%d)",
					id, cm.FP.Short(), cm.Offset, cm.Size, sp.Off, sp.Len)
			}
			cm.Offset = uint32(base + int64(cm.Offset) - sp.Off)
			part.Meta.Chunks = append(part.Meta.Chunks, cm)
		}
	}
	part.Meta.DataSize = uint32(len(part.Data))
	if m.Checksummed() {
		for i := range part.Meta.Chunks {
			cm := &part.Meta.Chunks[i]
			if verr := part.VerifyChunk(cm); verr != nil {
				return nil, fmt.Errorf("container %s: read span data: %w", id, verr)
			}
		}
	}
	part.Meta.buildFindIndex()
	return part, nil
}
