package container

import "sync"

// PackPool is the pack stage of the backup pipeline: filled containers
// are handed to background workers that seal (checksum + encode) them and
// put their payloads, while the dedup loop keeps cutting and deduplicating.
// The metas are the caller's to put, once Close has returned: no meta is
// stored before every part of every payload of the job is.
// This overlaps the two expensive tails of a backup — CRC32C/encoding CPU
// and OSS PUT latency — with the hot loop; Store.WritePayload puts each
// payload in parts side by side, the paper's multipart upload (§IV-A, Fig 2).
//
// Backpressure is explicit and two-level: the job queue bounds the
// container count, and an optional byte budget bounds the payload bytes
// sitting sealed-or-sealing ahead of the durability barrier — so a fast
// dedup loop can never buffer unboundedly in front of slow uploads.
//
// Errors are sticky: the first failed write is remembered and returned by
// Close; later writes still drain (they may succeed — each payload is
// an independent object) so the queue can never wedge. Written containers
// have their payload buffers released back to the store's pool.
type PackPool struct {
	jobs chan *Container
	wg   sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond
	inflight int64 // payload bytes queued or being written
	budget   int64 // 0 = no byte budget
	err      error
	sealed   []*Meta // metas of the payloads put
}

// NewPackPoolBudget starts `workers` sealers writing through store.
// workers < 1 is treated as 1. budget > 0 bounds the payload bytes
// admitted ahead of the workers: Write blocks while the budget is
// exhausted (a single container larger than the whole budget is still
// admitted alone, so progress is always possible).
func NewPackPoolBudget(store *Store, workers int, budget int64) *PackPool {
	if workers < 1 {
		workers = 1
	}
	p := &PackPool{jobs: make(chan *Container, 4*workers), budget: budget}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for c := range p.jobs {
				sz := int64(len(c.Data))
				c.Meta.Payload = c.Meta.ID
				err := store.WritePayload(c)
				store.Release(c)
				p.mu.Lock()
				if err != nil && p.err == nil {
					p.err = err
				}
				p.sealed = append(p.sealed, &c.Meta)
				p.inflight -= sz
				p.cond.Broadcast()
				p.mu.Unlock()
			}
		}()
	}
	return p
}

// Write enqueues a filled container. The caller must not touch c again —
// ownership (including the payload buffer, which is recycled after the
// durable write) passes to the pool. Blocks while the queue is full or
// the byte budget is exhausted (backpressure on the dedup loop).
func (p *PackPool) Write(c *Container) {
	sz := int64(len(c.Data))
	p.mu.Lock()
	for p.budget > 0 && p.inflight > 0 && p.inflight+sz > p.budget {
		p.cond.Wait()
	}
	p.inflight += sz
	p.mu.Unlock()
	p.jobs <- c
}

// Close waits for every queued payload to be put and returns the sealed
// metas, in the order their payloads landed, or the first write error. The
// pool is not reusable afterwards.
func (p *PackPool) Close() ([]*Meta, error) {
	close(p.jobs)
	p.wg.Wait()
	return p.sealed, p.err
}
