package lnode

import (
	"fmt"
	"io"

	"slimstore/internal/chunker"
	"slimstore/internal/fingerprint"
	"slimstore/internal/pipe"
	"slimstore/internal/simclock"
)

// This file is the front of STEP 2 (DESIGN.md §13): the head base detection
// samples, and the window the one chunk loop cuts from.

// headBytes is how much of the input base detection samples (§IV-A); also
// the streaming head-probe size: the default of LNode.headBytes.
const headBytes = 8 << 20

// window is what STEP 2 cuts from: data holds the version from some offset
// on, rd the rest of it until eof. An in-memory version, or a streamed one
// buffered behind its head, is a window at eof that never refills. A
// streamed version whose cuts cannot follow history is cut through one
// reused buffer, the head's, so its resident memory is that buffer whatever
// the version's size.
type window struct {
	data []byte
	rd   io.Reader
	eof  bool

	s   *chunker.Stream // cuts data; offsets are data's
	max int             // the cutter's Max: every cut's lookahead
}

// stream starts cutting the window at off with c, charging acct (nil for
// none).
func (w *window) stream(c chunker.Cutter, acct *simclock.Account, costs simclock.Costs, off int) *chunker.Stream {
	w.s = chunker.NewStream(w.data, c, acct, costs)
	w.s.StartAt(off)
	w.max = c.Params().Max
	return w.s
}

// fill is the window's refill rule: while the input goes on, a cut is made
// only with at least Max bytes ahead of it — all any cutter inspects — so
// every cut is the one cutting the whole version as one buffer makes. With
// fewer left, the uncut tail moves to the front of the buffer and the rest
// of the buffer is read. Every chunk cut before is consumed by then (a
// unique payload is copied into its container), and a version that streams
// merges no records, so nothing refers to the bytes overwritten. Returns
// the bytes read.
func (w *window) fill() (int, error) {
	if w.eof || w.s.Remaining() >= w.max {
		return 0, nil
	}
	buf := w.data[:cap(w.data)]
	if len(buf) < 2*w.max { // a head below two chunks: every refill still reads one
		buf = make([]byte, 2*w.max)
	}
	rem := copy(buf, w.data[w.s.Pos():])
	n, err := io.ReadFull(w.rd, buf[rem:])
	switch err {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		w.eof = true
	default:
		return n, fmt.Errorf("lnode: read stream: %w", err)
	}
	w.data = buf[:rem+n]
	w.s.Reset(w.data)
	return n, nil
}

// hashInto fingerprints chunks[i] into fps[i].
func hashInto(fps []fingerprint.FP, alg fingerprint.Algorithm, chunks []chunker.Chunk) {
	for i := range chunks {
		fps[i] = fingerprint.Of(alg, chunks[i].Data)
	}
}

// smallHashBatch is the per-worker chunk count at or below which fanning
// out costs more than hashing inline — measured by
// BenchmarkHashAllCrossover.
const smallHashBatch = 2

// hashWorkers is the w base detection hashes its probe at.
const hashWorkers = 4

// hashAll fingerprints chunks in input order, one contiguous range per
// goroutine of w (the crossover benchmark moves it); they end before it
// returns. Small inputs (<= smallHashBatch chunks per worker)
// hash inline. No simclock charges — the caller accounts for the pass (the
// probe pass bills OtherPerByte).
func hashAll(w int, alg fingerprint.Algorithm, chunks []chunker.Chunk) []fingerprint.FP {
	fps := make([]fingerprint.FP, len(chunks))
	if len(chunks) <= smallHashBatch*w {
		hashInto(fps, alg, chunks)
		return fps
	}
	stride := (len(chunks) + w - 1) / w
	_ = pipe.FanOut(w, w, func(k int) error { // hashing cannot fail
		s, e := min(k*stride, len(chunks)), min((k+1)*stride, len(chunks))
		hashInto(fps[s:e], alg, chunks[s:e])
		return nil
	})
	return fps
}

// IngestHandoff cuts and fingerprints data through STEP 2's window, as a
// backup of an in-memory version does, with a counting sink in place of
// the probe — the throughput and allocation probe of the front of ingest,
// used by the benchmark and the allocation-regression test. Returns the
// number of chunks.
func (n *LNode) IngestHandoff(data []byte) int {
	w := window{data: data, eof: true}
	s := w.stream(n.newCutter(), nil, simclock.Costs{}, 0)
	alg := n.repo.Config.FingerprintAlg
	chunks := 0
	for {
		ch, ok := s.Next()
		if !ok {
			return chunks
		}
		fingerprint.Of(alg, ch.Data)
		chunks++
	}
}
