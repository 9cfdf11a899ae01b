package lnode

import (
	"fmt"
	"io"
	"sync"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/fingerprint"
	"slimstore/internal/pipe"
	"slimstore/internal/poison"
	"slimstore/internal/simclock"
)

// This file is the ring front stage of ingest (DESIGN.md §13): chunk →
// fingerprint → dedupe → pack as a bounded pipeline of pooled batches,
// used whenever chunk boundaries are decided by content alone. A ring of
// recycled chunk batches carries the work, so a multi-GiB stream ingests
// in O(window) resident memory and the steady-state hot loop allocates
// (almost) nothing.
//
// Ownership discipline:
//   - The producer cuts chunks into batches, starts a goroutine that
//     fingerprints the batch, and puts the batch on the ring. From that
//     point the batch (chunks, fps, attached slab) belongs to the
//     consumer. The cuts the head probe already made (headCuts) go first,
//     as batches that arrive fingerprinted.
//   - The consumer waits for the batch's fingerprints, charges its
//     virtual CPU, runs the dedup sink (which copies unique payloads into
//     container buffers), and recycles the batch and its slab.
//   - In streaming mode each input buffer is attached to the last batch
//     cut from it; the ring is FIFO, so by the time that batch is
//     recycled every earlier batch referencing the buffer has been
//     consumed.
//
// Virtual-time determinism: chunking and fingerprint costs accumulate as
// per-chunk time.Duration conversions (exactly the truncation the serial
// path performs per ChargeCPUBytes call) summed into the batch, so the
// account total is bit-identical to the serial path regardless of worker
// count or interleaving.
const (
	// ingestBatchChunks is the hand-off granularity: one hashing goroutine
	// and one ring slot per this many chunks (~1 MiB at the default 4 KiB
	// avg, ~0.7 ms of SHA-1 — the spawn is noise beside it).
	ingestBatchChunks = 256
	// ingestRingDepth bounds batches in flight between producer and
	// consumer — the pipeline's window, its backpressure on the cutter, and
	// (one in the producer's hand, one in the consumer's) the bound on
	// batches being hashed at once.
	ingestRingDepth = 4
	// ingestSlabBytes is the streaming read-buffer size (grown to 4×Max
	// for oversized chunk configurations).
	ingestSlabBytes = 1 << 20
)

// headBytes is how much of the input base detection samples (§IV-A); also
// the streaming head-probe size. A variable only so that tests can put the
// seam between the probe's cuts and STEP 2's wherever they need it.
var headBytes = 8 << 20

// chunkBatch is one pipeline unit: a run of consecutive chunks, their
// fingerprints (filled asynchronously by the batch's hashing goroutine;
// wait on done), the virtual CPU its production cost, and optionally the
// input buffer this batch is the last user of.
type chunkBatch struct {
	chunks   []chunker.Chunk
	fps      []fingerprint.FP
	done     sync.WaitGroup
	chunkCPU time.Duration
	hashCPU  time.Duration
	slab     []byte
	pooled   bool // in batchPool and not taken since; kept where poison.On
}

var batchPool = sync.Pool{New: func() any { return new(chunkBatch) }}

func getBatch() *chunkBatch {
	b := batchPool.Get().(*chunkBatch)
	b.pooled = false
	return b
}

// putBatch recycles b and the slab attached to it. Where poison.On it
// scribbles over the chunk and fingerprint arrays first, to their
// capacity, and panics on a batch already in the pool.
func putBatch(b *chunkBatch) {
	if b.slab != nil {
		putSlab(b.slab)
		b.slab = nil
	}
	if poison.On() {
		if b.pooled {
			panic("lnode: chunk batch returned to its pool twice")
		}
		b.pooled = true
		clear(b.chunks[:cap(b.chunks)])
		fps := b.fps[:cap(b.fps)]
		for i := range fps {
			for k := range fps[i] {
				fps[i][k] = poison.Byte
			}
		}
	}
	b.chunks = b.chunks[:0]
	b.fps = b.fps[:0]
	b.chunkCPU, b.hashCPU = 0, 0
	batchPool.Put(b)
}

// slabPool recycles streaming read buffers. Entries may differ in size
// across configurations; getSlab drops undersized ones.
var slabPool = sync.Pool{New: func() any { return (*[]byte)(nil) }}

func getSlab(n int) []byte {
	if p, _ := slabPool.Get().(*[]byte); p != nil && cap(*p) >= n {
		poison.Take(*p)
		return (*p)[:n]
	}
	return make([]byte, n)
}

func putSlab(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	poison.Put(b)
	slabPool.Put(&b)
}

// ingestRun is the per-backup pipeline state, pooled on the L-node so a
// steady stream of backups reuses the ring, cutter, and channels.
type ingestRun struct {
	node      *LNode
	alg       fingerprint.Algorithm
	cutter    chunker.Cutter
	cutCost   float64
	hashCost  float64
	maxChunk  int
	slabBytes int

	// ring carries batches producer → consumer; a nil batch is the
	// end-of-stream sentinel (the channel is never closed, so pooled runs
	// can reuse it).
	ring chan *chunkBatch
	// stop aborts the producer when the consumer fails mid-stream.
	stop    chan struct{}
	stopped bool

	prodErr  error
	produced int64
}

// newIngestRun takes a run from the node's pool; the cutter and ring
// survive reuse, only the per-run state resets.
func (n *LNode) newIngestRun() *ingestRun {
	cfg := &n.repo.Config
	r, _ := n.runs.Get().(*ingestRun)
	if r == nil {
		r = &ingestRun{ring: make(chan *chunkBatch, ingestRingDepth)}
	}
	if r.cutter == nil {
		r.cutter = n.newCutter()
		r.maxChunk = r.cutter.Params().Max
		r.slabBytes = ingestSlabBytes
		if m := 4 * r.maxChunk; m > r.slabBytes {
			r.slabBytes = m
		}
	}
	r.node = n
	r.alg = cfg.FingerprintAlg
	r.cutCost = r.cutter.PerByteCost(cfg.Costs)
	r.hashCost = cfg.FingerprintPerByte()
	if r.stop == nil || r.stopped {
		r.stop = make(chan struct{})
		r.stopped = false
	}
	r.prodErr = nil
	r.produced = 0
	return r
}

// putIngestRun recycles r, whose producer has sent its sentinel. Where
// poison.On a run in the pool has no node — a second put panics on that —
// and has produced -1 bytes, so that a job reading its size from a
// recycled run reports one no job has.
func (n *LNode) putIngestRun(r *ingestRun) {
	if poison.On() {
		if r.node == nil {
			panic("lnode: ingest run returned to its pool twice")
		}
		r.node, r.produced = nil, -1
	}
	n.runs.Put(r)
}

// emit starts fingerprinting a finished batch and puts it on the ring. The
// batch is hashed on a goroutine of its own, which ends before whoever
// takes the batch off the ring (consume, or send on abort) gets past
// done.Wait — none outlives the job, and the ring's depth bounds how many
// run at once.
// owned, if non-nil, is an input buffer whose last chunks live in this
// batch; it is recycled when the batch is. Returns false when the
// consumer aborted.
func (r *ingestRun) emit(b *chunkBatch, owned []byte) bool {
	b.slab = owned
	if cap(b.fps) < len(b.chunks) {
		b.fps = make([]fingerprint.FP, len(b.chunks))
	}
	b.fps = b.fps[:len(b.chunks)]
	if len(b.chunks) > 0 {
		b.done.Add(1)
		go func() {
			defer b.done.Done()
			hashInto(b.fps, r.alg, b.chunks)
		}()
	}
	return r.send(b)
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

// send puts a batch whose fingerprints are filled in or being filled in on
// the ring. Returns false when the consumer aborted.
func (r *ingestRun) send(b *chunkBatch) bool {
	select {
	case r.ring <- b:
		return true
	case <-r.stop:
		b.done.Wait()
		putBatch(b)
		return false
	}
}

// seed sends the head probe's cuts down the ring ahead of everything the
// producer cuts itself, fingerprints attached. Returns false when the
// consumer aborted.
func (r *ingestRun) seed(head headCuts) bool {
	for i := 0; i < len(head.chunks); i += ingestBatchChunks {
		end := min(i+ingestBatchChunks, len(head.chunks))
		b := getBatch()
		for _, ch := range head.chunks[i:end] {
			r.add(b, ch)
		}
		b.fps = append(b.fps, head.fps[i:end]...)
		if !r.send(b) {
			return false
		}
	}
	return true
}

// add appends ch to b, charging its production cost into the batch — the
// same per-chunk conversions whether ch was cut here or by the head probe.
func (r *ingestRun) add(b *chunkBatch, ch chunker.Chunk) {
	b.chunks = append(b.chunks, ch)
	b.chunkCPU += time.Duration(float64(ch.Size()) * r.cutCost)
	b.hashCPU += time.Duration(float64(ch.Size()) * r.hashCost)
}

// cut appends the next chunk starting at buf[pos] to b. Returns the chunk
// length.
func (r *ingestRun) cut(b *chunkBatch, buf []byte, pos int, base int64) int {
	n := r.cutter.Cut(buf[pos:])
	if n <= 0 { // defensive, mirrors chunker.Stream.Next
		n = 1
	}
	r.add(b, chunker.Chunk{Offset: base + int64(pos), Data: buf[pos : pos+n]})
	return n
}

// produceBuffer cuts an in-memory version into batches, from where head
// ends. Runs as a goroutine; always terminates the ring with the nil
// sentinel.
func (r *ingestRun) produceBuffer(data []byte, head headCuts) {
	defer func() { r.ring <- nil }()
	if !r.seed(head) {
		return
	}
	b := getBatch()
	pos := int(head.end)
	for pos < len(data) {
		pos += r.cut(b, data, pos, 0)
		if len(b.chunks) >= ingestBatchChunks {
			if !r.emit(b, nil) {
				return
			}
			b = getBatch()
		}
	}
	if len(b.chunks) > 0 {
		if !r.emit(b, nil) {
			return
		}
	} else {
		putBatch(b)
	}
	r.produced = int64(len(data))
}

// produceStream cuts head followed by rd (nothing, when eof) into batches,
// from where the cuts already made end, reading through recycled slabs. A
// chunk is cut only when the lookahead covers the cutter's maximum chunk
// size (or the stream hit EOF), which makes the boundaries identical to
// cutting the whole input as one buffer. Runs as a goroutine; always
// terminates the ring with the nil sentinel.
func (r *ingestRun) produceStream(head []byte, eof bool, rd io.Reader, cuts headCuts) {
	defer func() { r.ring <- nil }()
	if !r.seed(cuts) {
		return
	}
	b := getBatch()
	buf := head
	pos := int(cuts.end)
	r.produced = int64(pos)
	var base int64
	for {
		for pos < len(buf) && (eof || len(buf)-pos >= r.maxChunk) {
			n := r.cut(b, buf, pos, base)
			pos += n
			r.produced += int64(n)
			if len(b.chunks) >= ingestBatchChunks {
				if !r.emit(b, nil) {
					return
				}
				b = getBatch()
			}
		}
		if eof {
			break
		}
		// Refill: copy the (< maxChunk) tail into a fresh slab and hand the
		// current buffer to the outgoing batch — the FIFO ring guarantees
		// every earlier batch referencing it is consumed first.
		slab := getSlab(r.slabBytes)
		rem := copy(slab, buf[pos:])
		if !r.emit(b, buf) {
			return
		}
		b = getBatch()
		base += int64(pos)
		n, err := io.ReadFull(rd, slab[rem:])
		buf, pos = slab[:rem+n], 0
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			eof = true
		default:
			r.prodErr = fmt.Errorf("lnode: read stream: %w", err)
			putBatch(b)
			putSlab(slab)
			return
		}
	}
	// The final buffer travels with the final batch (possibly empty).
	if len(b.chunks) > 0 || len(buf) > 0 {
		if !r.emit(b, buf) {
			return
		}
	} else {
		putBatch(b)
	}
}

// consume drains the ring in order, charging each batch's virtual CPU and
// feeding it to sink. On sink error the producer is aborted and the ring
// drained so the run stays reusable. acct may be nil (measurement runs).
func (r *ingestRun) consume(acct *simclock.Account, sink func(*chunkBatch) error) error {
	var firstErr error
	for {
		b := <-r.ring
		if b == nil {
			break
		}
		b.done.Wait()
		if firstErr == nil {
			if acct != nil {
				acct.ChargeCPU(simclock.PhaseChunking, b.chunkCPU)
				acct.ChargeCPU(simclock.PhaseFingerprint, b.hashCPU)
			}
			if err := sink(b); err != nil {
				firstErr = err
				r.stopped = true
				close(r.stop)
			}
		}
		putBatch(b)
	}
	if firstErr != nil {
		return firstErr
	}
	return r.prodErr
}

// consumeRing is STEP 2 behind the ring: every chunk of every batch, in
// input order, through the same lookup and duplicate/unique emit as the
// history-aware loop. The bytes the producer cut are the version's
// logical size — the only way a streaming job learns it. Recycles r.
func (j *backupJob) consumeRing(r *ingestRun) error {
	err := r.consume(j.acct, func(b *chunkBatch) error {
		for i := range b.chunks {
			if err := j.dedupeChunk(b.fps[i], b.chunks[i]); err != nil {
				return err
			}
		}
		return nil
	})
	j.stats.LogicalBytes = r.produced
	j.node.putIngestRun(r)
	if err != nil {
		return err
	}
	return j.flushPending()
}

// dedupeStream is STEP 2 on the ring for streaming input.
func (j *backupJob) dedupeStream(head []byte, eof bool, rd io.Reader) error {
	r := j.node.newIngestRun()
	go r.produceStream(head, eof, rd, j.head)
	return j.consumeRing(r)
}

// IngestHandoff drives data through the pooled chunk→hash→ring hand-off
// with a counting sink — the steady-state allocation and throughput probe
// used by the benchmark and the allocation-regression test.
// Returns the number of chunks produced.
func (n *LNode) IngestHandoff(data []byte) int {
	r := n.newIngestRun()
	go r.produceBuffer(data, headCuts{})
	total := 0
	for {
		b := <-r.ring
		if b == nil {
			break
		}
		b.done.Wait()
		total += len(b.chunks)
		putBatch(b)
	}
	n.putIngestRun(r)
	return total
}
