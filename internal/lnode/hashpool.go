package lnode

import (
	"sync"

	"slimstore/internal/chunker"
	"slimstore/internal/fingerprint"
)

// This file is the persistent fingerprint worker pool of the ingest ring
// (DESIGN.md §13): an L-node owns one long-lived pool fed over a channel,
// so the steady-state hot path schedules work without goroutine churn.
// The pool is lazily created on first use and torn down by Close (the
// jobs engine closes its L-nodes when a host retires).

// hashJob is one unit of pool work: fingerprint chunks[i] into fps[i]
// for every i, then signal done. chunks and fps are owned by the
// submitter until done fires; the worker never retains them.
type hashJob struct {
	alg    fingerprint.Algorithm
	chunks []chunker.Chunk
	fps    []fingerprint.FP
	done   *sync.WaitGroup
}

// hashPool is a fixed set of long-lived fingerprint workers.
type hashPool struct {
	jobs chan hashJob
	wg   sync.WaitGroup
}

func newHashPool(workers int) *hashPool {
	p := &hashPool{jobs: make(chan hashJob, 4*workers)}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for j := range p.jobs {
				for k := range j.chunks {
					j.fps[k] = fingerprint.Of(j.alg, j.chunks[k].Data)
				}
				j.done.Done()
			}
		}()
	}
	return p
}

// submit enqueues one job; j.done must have been Add(1)'d by the caller.
func (p *hashPool) submit(j hashJob) { p.jobs <- j }

func (p *hashPool) close() {
	close(p.jobs)
	p.wg.Wait()
}

// hashers returns the node's persistent pool, creating it on first use.
// Nil when the configuration hashes inline (HashWorkers <= 0) or the
// node is closed — callers fall back to inline hashing.
func (n *LNode) hashers() *hashPool {
	if n.repo.Config.HashWorkers <= 0 {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil
	}
	if n.hpool == nil {
		n.hpool = newHashPool(n.repo.Config.HashWorkers)
	}
	return n.hpool
}

// Close tears down the node's worker pool. Safe to call multiple times;
// jobs running on the node must have completed. After Close the node
// still works, hashing inline.
func (n *LNode) Close() {
	n.mu.Lock()
	pool := n.hpool
	n.hpool = nil
	n.closed = true
	n.mu.Unlock()
	if pool != nil {
		pool.close()
	}
}

// smallHashBatch is the per-worker chunk count at or below which feeding
// the pool costs more than hashing inline — measured by
// BenchmarkHashAllCrossover.
const smallHashBatch = 2

// hashAll fingerprints chunks in input order through the persistent pool,
// splitting the slice into one contiguous range per worker. Small inputs
// (<= smallHashBatch chunks per worker) hash inline. No simclock charges —
// the caller accounts for the pass (the probe pass bills OtherPerByte).
func (n *LNode) hashAll(alg fingerprint.Algorithm, chunks []chunker.Chunk) []fingerprint.FP {
	w := n.repo.Config.HashWorkers
	pool := n.hashers()
	fps := make([]fingerprint.FP, len(chunks))
	if pool == nil || len(chunks) <= smallHashBatch*w {
		for i := range chunks {
			fps[i] = fingerprint.Of(alg, chunks[i].Data)
		}
		return fps
	}
	stride := (len(chunks) + w - 1) / w
	var wg sync.WaitGroup
	for s := 0; s < len(chunks); s += stride {
		e := s + stride
		if e > len(chunks) {
			e = len(chunks)
		}
		wg.Add(1)
		pool.submit(hashJob{alg: alg, chunks: chunks[s:e], fps: fps[s:e], done: &wg})
	}
	wg.Wait()
	return fps
}
