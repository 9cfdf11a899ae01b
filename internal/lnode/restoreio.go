package lnode

import (
	"sync"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/simclock"
)

// restoreIO is the node-level fetch layer every restore's container reads
// go through (DESIGN.md §10). It sits between the per-job cache policy
// (which decides WHAT to keep) and the container store (which executes
// reads), and decides HOW each container is read:
//
//  1. A container resident in the node-wide shared cache is returned
//     without touching OSS (no simclock charge — another job already paid).
//  2. A container the planner judged sparse for this job's need-set is
//     fetched with coalesced ranged reads, charged to this job, and NOT
//     shared (a partial container only answers this job's requests).
//  3. Everything else is a full-object read through the shared cache's
//     singleflight: one OSS read per container node-wide, charged to the
//     one job that runs it; concurrent requesters join for free.
//
// Either kind of read is issued as the requests its plan lists — one, or
// the pieces cache.Split cut it into — through the job's gated store view,
// so what the job keeps in flight is requests, PrefetchThreads of them,
// the longest waiting first, whichever containers they belong to.
//
// The layer is safe for concurrent use by the LAW prefetch workers.
type restoreIO struct {
	containers *container.Store // this job's metered view, gated at the job's read channels
	shared     *cache.Shared    // nil = shared cache disabled
	threads    int
	costs      simclock.Costs

	mu sync.Mutex // plans and the counters below
	// plans holds every container of the pinned sequence that has
	// metadata, planned and cut before its read starts, and never replaced:
	// the reads a restore begins before its sequence is resolved (begin)
	// keep the plans they were started with.
	plans       map[container.ID]cache.ReadPlan
	sharedHits  int
	sharedJoins int
	rangedReads int
	rangedSpans int
	rangedBytes int64
}

// newRestoreIO builds the fetch layer of one restore read over `threads`
// channels; begin and plan give it its plans.
func newRestoreIO(n *LNode, containers *container.Store, threads int) *restoreIO {
	return &restoreIO{
		containers: containers.Gated(threads),
		shared:     n.repo.RestoreIO,
		threads:    threads,
		costs:      n.repo.Config.Costs,
		plans:      make(map[container.ID]cache.ReadPlan),
	}
}

// planAll plans every container of seq that has metadata in metas, in
// first-need order, and cuts the long reads among them (cache.Split).
// metas is the memo of one resolution pass — exactly the states seq was
// resolved against, so plans derived from it match what the spans will
// serve. The result is a function of seq, metas, threads and the cost
// model.
func (rio *restoreIO) planAll(seq []cache.Request, metas map[container.ID]*container.Meta) ([]container.ID, []cache.ReadPlan) {
	need := make(map[container.ID]map[fingerprint.FP]bool)
	var order []container.ID // containers with metadata, in first-need order
	for i := range seq {
		id := seq[i].Container
		set := need[id]
		if set == nil {
			set = make(map[fingerprint.FP]bool)
			need[id] = set
			if metas[id] != nil {
				order = append(order, id)
			}
		}
		set[seq[i].FP] = true
	}
	plans := make([]cache.ReadPlan, len(order))
	ms := make([]*container.Meta, len(order))
	for i, id := range order {
		ms[i] = metas[id]
		plans[i] = cache.Plan(ms[i], need[id], rio.costs)
	}
	cache.Split(plans, ms, rio.threads, rio.costs)
	return order, plans
}

// early plans the reads a restore can start before its index probe
// answers (DESIGN.md §14). home is the requests found at their homes and
// metas the home metas: among the first `window` containers home first
// needs, those read whole — a whole read serves any chunk the probe can add
// to its container, so no answer changes its plan — are returned with
// their plans, cut as among every home container. Nothing is kept until
// begin.
func (rio *restoreIO) early(home []cache.Request, metas map[container.ID]*container.Meta, window int) ([]container.ID, []cache.ReadPlan) {
	order, plans := rio.planAll(home, metas)
	var ids []container.ID
	var whole []cache.ReadPlan
	for i := range order[:min(window, len(order))] {
		if plans[i].Full {
			ids, whole = append(ids, order[i]), append(whole, plans[i])
		}
	}
	return ids, whole
}

// begin keeps the plans of the reads about to be begun; with nil plans it
// drops them again, for plan to make afresh.
func (rio *restoreIO) begin(ids []container.ID, plans []cache.ReadPlan) {
	rio.mu.Lock()
	defer rio.mu.Unlock()
	for i, id := range ids {
		if plans == nil {
			delete(rio.plans, id)
		} else {
			rio.plans[id] = plans[i]
		}
	}
}

// plan plans the pinned sequence: every container with metadata that has
// no plan yet. The requests a restore issues are a function of the
// sequence, the metas of its passes, threads and the cost model, fixed
// before the reads that use them start.
func (rio *restoreIO) plan(seq []cache.Request, metas map[container.ID]*container.Meta) {
	order, plans := rio.planAll(seq, metas)
	rio.mu.Lock()
	defer rio.mu.Unlock()
	for i, id := range order {
		if _, begun := rio.plans[id]; !begun {
			rio.plans[id] = plans[i]
		}
	}
}

// fetch is the cache.Fetcher the restore policy (and prefetcher) use. A
// container the resolution pass has no metadata for has no plan and is
// read whole.
func (rio *restoreIO) fetch(id container.ID) (*container.Container, error) {
	if rio.shared != nil {
		if c, ok := rio.shared.Get(id); ok {
			rio.mu.Lock()
			rio.sharedHits++
			rio.mu.Unlock()
			return c, nil
		}
	}
	rio.mu.Lock()
	p, planned := rio.plans[id]
	rio.mu.Unlock()
	read := func() (*container.Container, error) { return rio.containers.ReadSpans(id, p.Reads) }
	if planned && !p.Full {
		c, err := read()
		if err != nil {
			return nil, err
		}
		rio.mu.Lock()
		rio.rangedReads++
		rio.rangedSpans += len(p.Reads)
		rio.rangedBytes += p.SpanBytes
		rio.mu.Unlock()
		return c, nil
	}
	if rio.shared == nil {
		return read()
	}
	c, src, err := rio.shared.Fetch(id, read)
	if err != nil {
		return nil, err
	}
	rio.mu.Lock()
	switch src {
	case cache.SrcHit:
		rio.sharedHits++
	case cache.SrcJoined:
		rio.sharedJoins++
	}
	rio.mu.Unlock()
	return c, nil
}

// addTo merges the layer's counters into a job's cache stats.
func (rio *restoreIO) addTo(st *cache.Stats) {
	rio.mu.Lock()
	defer rio.mu.Unlock()
	st.SharedHits += rio.sharedHits
	st.SharedJoins += rio.sharedJoins
	st.RangedReads += rio.rangedReads
	st.RangedSpans += rio.rangedSpans
	st.RangedBytes += rio.rangedBytes
}
