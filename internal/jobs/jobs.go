// Package jobs is the concurrent multi-job engine: it runs N
// backup/restore/verify/maintenance jobs across M goroutine-hosted
// L-nodes against one shared repository. The paper's deployment (§III-B,
// §VII-E) scales stateless L-nodes horizontally against a single storage
// layer; here each L-node is hosted by one worker goroutine pulling from a
// bounded queue, and the shared substrate (global index, container store,
// recipe store, locks) carries the concurrency — see core/locks.go and
// DESIGN.md §7 for the synchronisation protocol.
//
// Jobs are submitted with a context; a job whose context is cancelled
// before a worker picks it up completes with the context's error without
// running. Mid-job cancellation is not interrupted (the substrate's
// operations are not cancellable), matching the paper's job model where a
// started backup runs to completion.
package jobs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
)

// Kind selects what a Job does.
type Kind int

const (
	// Backup deduplicates and stores Job.Data as a new version of FileID.
	Backup Kind = iota
	// Restore streams FileID@Version to Job.Out (Version < 0 = latest).
	Restore
	// Verify re-fingerprints every chunk of FileID@Version without
	// materialising it (Version < 0 = latest).
	Verify
	// Delete removes FileID@Version and sweeps its garbage containers.
	Delete
	// Optimize runs the G-node pass for a finished backup: reverse dedup
	// over NewContainers, then SCC for Sparse.
	Optimize
	// Scrub verifies and repairs the whole container namespace.
	Scrub
	// Sweep runs the full mark-and-sweep audit.
	Sweep
)

// String names the kind for logs and test output.
func (k Kind) String() string {
	switch k {
	case Backup:
		return "backup"
	case Restore:
		return "restore"
	case Verify:
		return "verify"
	case Delete:
		return "delete"
	case Optimize:
		return "optimize"
	case Scrub:
		return "scrub"
	case Sweep:
		return "sweep"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Job is one unit of work. Fields beyond Kind are per-kind inputs; unused
// fields are ignored.
type Job struct {
	Kind    Kind
	FileID  string
	Version int       // Restore/Verify/Delete/Optimize; < 0 = latest where allowed
	Data    []byte    // Backup input
	Out     io.Writer // Restore output; nil discards

	// Optimize inputs, from the finished backup's stats.
	NewContainers []container.ID
	Sparse        []container.ID
}

// Result is a completed job. Exactly the stats field matching Job.Kind is
// set (nil on error); Err carries the failure or the submission context's
// cancellation error.
type Result struct {
	Job   Job
	LNode string // name of the hosting L-node ("" for cancelled jobs)
	Err   error

	Backup  *lnode.BackupStats
	Restore *lnode.RestoreStats
	GC      *gnode.GCStats
	Reverse *gnode.ReverseDedupStats
	SCC     *gnode.SCCStats
	Scrub   *gnode.ScrubStats
	Audit   *gnode.AuditStats
}

// Ticket tracks one submitted job.
type Ticket struct {
	done chan struct{}
	res  Result
}

// Done is closed when the job has completed (or been skipped as
// cancelled).
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the job completes and returns its result.
func (t *Ticket) Wait() Result {
	<-t.done
	return t.res
}

type task struct {
	ctx context.Context
	job Job
	tk  *Ticket
}

// Options tune an Engine.
type Options struct {
	// LNodes is the worker count; each worker hosts one L-node.
	// Default 4.
	LNodes int
	// Queue bounds the submission queue (Submit blocks when full).
	// Default 2×LNodes.
	Queue int
}

// Stats is a snapshot of engine activity.
type Stats struct {
	Submitted int64
	Completed int64
	Failed    int64
	Cancelled int64

	// Restore data-path aggregates (DESIGN.md §14):
	// verify-job volume and LAW prefetcher effectiveness summed over every
	// completed restore and verify job.
	VerifyJobs         int64 // verify jobs whose chunks all checked out
	VerifiedBytes      int64 // logical bytes those jobs fingerprint-verified
	PrefetchDispatched int64 // container slots handed to prefetch workers
	PrefetchConsumed   int64 // fetches served from a dispatched slot
	PrefetchDirect     int64 // fetches that bypassed the prefetch slots
}

// Engine schedules jobs over a pool of goroutine-hosted L-nodes and one
// G-node. Safe for concurrent use.
type Engine struct {
	repo  *core.Repo
	g     *gnode.GNode
	queue chan task

	mu     sync.RWMutex // guards closed vs in-flight Submit sends
	closed bool
	wg     sync.WaitGroup
	once   sync.Once

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64

	verifyJobs    atomic.Int64
	verifiedBytes atomic.Int64
	pfDispatched  atomic.Int64
	pfConsumed    atomic.Int64
	pfDirect      atomic.Int64
}

// New starts an engine over repo. The G-node serialises its own
// maintenance internally, so sharing g across engines is safe.
func New(repo *core.Repo, g *gnode.GNode, opts Options) *Engine {
	if opts.LNodes < 1 {
		opts.LNodes = 4
	}
	if opts.Queue < 1 {
		opts.Queue = 2 * opts.LNodes
	}
	e := &Engine{repo: repo, g: g, queue: make(chan task, opts.Queue)}
	for i := 0; i < opts.LNodes; i++ {
		ln := lnode.New(repo, fmt.Sprintf("L%d", i))
		e.wg.Add(1)
		go e.host(ln)
	}
	return e
}

// Submit enqueues a job, blocking while the queue is full. It returns
// ctx.Err() if the context is cancelled first. ctx may be nil.
func (e *Engine) Submit(ctx context.Context, j Job) (*Ticket, error) {
	if ctx == nil {
		//slimlint:ignore ctxflow documented API contract: Submit accepts a nil ctx and degrades to an uncancellable job, matching the paper's run-to-completion model
		ctx = context.Background()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, fmt.Errorf("jobs: engine closed")
	}
	tk := &Ticket{done: make(chan struct{})}
	select {
	case e.queue <- task{ctx: ctx, job: j, tk: tk}:
		e.submitted.Add(1)
		return tk, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Run submits every job and waits for all of them, preserving order.
// Submission failures (context cancelled, engine closed) appear as
// results with Err set.
func (e *Engine) Run(ctx context.Context, js []Job) []Result {
	tickets := make([]*Ticket, len(js))
	results := make([]Result, len(js))
	for i, j := range js {
		tk, err := e.Submit(ctx, j)
		if err != nil {
			results[i] = Result{Job: j, Err: err}
			continue
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if tk != nil {
			results[i] = tk.Wait()
		}
	}
	return results
}

// Close stops accepting jobs, waits for the queue to drain and every
// worker to finish, then returns. Idempotent.
func (e *Engine) Close() {
	e.once.Do(func() {
		e.mu.Lock()
		e.closed = true
		close(e.queue)
		e.mu.Unlock()
		e.wg.Wait()
	})
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Submitted:          e.submitted.Load(),
		Completed:          e.completed.Load(),
		Failed:             e.failed.Load(),
		Cancelled:          e.cancelled.Load(),
		VerifyJobs:         e.verifyJobs.Load(),
		VerifiedBytes:      e.verifiedBytes.Load(),
		PrefetchDispatched: e.pfDispatched.Load(),
		PrefetchConsumed:   e.pfConsumed.Load(),
		PrefetchDirect:     e.pfDirect.Load(),
	}
}

// SharedCacheStats snapshots the node-wide restore cache the engine's
// restore jobs share (zero value when Config.SharedCacheBytes disabled it).
func (e *Engine) SharedCacheStats() cache.SharedStats {
	if e.repo.RestoreIO == nil {
		return cache.SharedStats{}
	}
	return e.repo.RestoreIO.Stats()
}

// host is one worker goroutine: it owns one L-node for its lifetime and
// executes queued jobs on it.
func (e *Engine) host(ln *lnode.LNode) {
	defer e.wg.Done()
	for t := range e.queue {
		if err := t.ctx.Err(); err != nil {
			e.cancelled.Add(1)
			t.tk.res = Result{Job: t.job, Err: err}
			close(t.tk.done)
			continue
		}
		res := e.run(ln, t.job)
		if res.Err != nil {
			e.failed.Add(1)
		} else {
			e.completed.Add(1)
		}
		t.tk.res = res
		close(t.tk.done)
	}
}

// noteRestore folds one restore/verify job's prefetcher effectiveness
// into the engine aggregates.
func (e *Engine) noteRestore(st *lnode.RestoreStats, err error) {
	if err != nil || st == nil {
		return
	}
	e.pfDispatched.Add(int64(st.Prefetch.Dispatched))
	e.pfConsumed.Add(int64(st.Prefetch.Consumed))
	e.pfDirect.Add(int64(st.Prefetch.Direct))
}

// latest resolves Version < 0 to the file's newest version.
func (e *Engine) latest(j Job) (int, error) {
	if j.Version >= 0 {
		return j.Version, nil
	}
	v, ok, err := e.repo.Recipes.LatestVersion(j.FileID)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("jobs: %s: no versions of %q", j.Kind, j.FileID)
	}
	return v, nil
}

func (e *Engine) run(ln *lnode.LNode, j Job) Result {
	res := Result{Job: j, LNode: ln.Name()}
	switch j.Kind {
	case Backup:
		res.Backup, res.Err = ln.Backup(j.FileID, j.Data)
	case Restore:
		v, err := e.latest(j)
		if err != nil {
			res.Err = err
			return res
		}
		out := j.Out
		if out == nil {
			out = io.Discard
		}
		res.Restore, res.Err = ln.Restore(j.FileID, v, out)
		e.noteRestore(res.Restore, res.Err)
	case Verify:
		v, err := e.latest(j)
		if err != nil {
			res.Err = err
			return res
		}
		res.Restore, res.Err = ln.Verify(j.FileID, v)
		e.noteRestore(res.Restore, res.Err)
		if res.Err == nil && res.Restore != nil {
			e.verifyJobs.Add(1)
			e.verifiedBytes.Add(res.Restore.Bytes)
		}
	case Delete:
		res.GC, res.Err = e.g.DeleteVersion(j.FileID, j.Version)
	case Optimize:
		res.Reverse, res.SCC, res.Err = e.g.Optimize(j.FileID, j.Version, j.NewContainers, j.Sparse)
	case Scrub:
		res.Scrub, res.Err = e.g.Scrub()
	case Sweep:
		res.Audit, res.Err = e.g.FullSweep()
	default:
		res.Err = fmt.Errorf("jobs: unknown kind %d", int(j.Kind))
	}
	return res
}
