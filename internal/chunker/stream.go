package chunker

import (
	"slimstore/internal/simclock"
)

// Chunk is a contiguous piece of a file produced by chunking.
type Chunk struct {
	Offset int64  // position of the first byte within the file
	Data   []byte // sub-slice of the file buffer, not a copy
}

// Size returns the chunk length in bytes.
func (c Chunk) Size() int { return len(c.Data) }

// Stream drives a Cutter over an in-memory file and charges virtual CPU
// time for every byte the sliding window scans. It also exposes the exact
// positioned cuts needed by history-aware skip chunking and SuperChunking:
// SkipCut consumes a caller-chosen number of bytes without scanning them.
type Stream struct {
	data   []byte
	pos    int
	cutter Cutter
	acct   *simclock.Account
	costs  simclock.Costs
}

// NewStream returns a stream over data. acct may be nil to disable
// accounting.
func NewStream(data []byte, c Cutter, acct *simclock.Account, costs simclock.Costs) *Stream {
	return &Stream{data: data, cutter: c, acct: acct, costs: costs}
}

// Reset rewinds the stream onto a new buffer, keeping the cutter and
// accounting configuration. Per-version streams reuse one Stream value
// instead of reallocating; a reset stream produces exactly the cuts a
// fresh NewStream over the same buffer would.
func (s *Stream) Reset(data []byte) {
	s.data = data
	s.pos = 0
}

// StartAt positions a fresh stream at off: the bytes before it were cut
// elsewhere (a backup's head probe, lnode) and are neither scanned, skipped
// nor charged here. Chunk offsets stay relative to the whole buffer.
func (s *Stream) StartAt(off int) { s.pos = off }

// Pos returns the current offset.
func (s *Stream) Pos() int { return s.pos }

// Remaining returns the number of unconsumed bytes.
func (s *Stream) Remaining() int { return len(s.data) - s.pos }

// Done reports whether the whole file has been consumed.
func (s *Stream) Done() bool { return s.pos >= len(s.data) }

// Next cuts the next chunk with the CDC algorithm, charging the cutter's
// per-byte cost for the scanned bytes. It returns false when the stream is
// exhausted.
func (s *Stream) Next() (Chunk, bool) {
	if s.Done() {
		return Chunk{}, false
	}
	n := s.cutter.Cut(s.data[s.pos:])
	if n <= 0 { // defensive: a cutter must always make progress
		n = 1
	}
	ch := Chunk{Offset: int64(s.pos), Data: s.data[s.pos : s.pos+n]}
	s.pos += n
	if s.acct != nil {
		s.acct.ChargeCPUBytes(simclock.PhaseChunking, int64(n), s.cutter.PerByteCost(s.costs))
	}
	return ch, true
}

// SkipCut consumes exactly n bytes as one chunk without running the sliding
// window — the history-aware skip of §IV-B and the superchunk cut of
// Algorithm 1. Only the (near-zero) skip-verification cost is charged; the
// caller separately charges fingerprinting for the duplicate check. If fewer
// than n bytes remain, ok is false and nothing is consumed.
func (s *Stream) SkipCut(n int) (Chunk, bool) {
	if n <= 0 || s.pos+n > len(s.data) {
		return Chunk{}, false
	}
	ch := Chunk{Offset: int64(s.pos), Data: s.data[s.pos : s.pos+n]}
	s.pos += n
	if s.acct != nil {
		s.acct.ChargeCPUBytes(simclock.PhaseChunking, int64(n), s.costs.SkipVerifyPerByte)
	}
	return ch, true
}

// Rewind moves the position back to off, undoing a failed skip attempt. off
// must not exceed the current position.
func (s *Stream) Rewind(off int64) {
	if int(off) < 0 || int(off) > s.pos {
		return
	}
	s.pos = int(off)
}

// SplitAll chunks an entire buffer in one call; a convenience for tests,
// baselines, and the workload generator.
func SplitAll(data []byte, c Cutter) []Chunk {
	s := NewStream(data, c, nil, simclock.Costs{})
	var out []Chunk
	for {
		ch, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, ch)
	}
}
