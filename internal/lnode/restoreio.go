package lnode

import (
	"sync"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
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
// whichever containers they belong to.
//
// The layer is safe for concurrent use by the LAW prefetch workers.
type restoreIO struct {
	containers *container.Store // this job's metered view, gated at the job's read channels
	shared     *cache.Shared    // nil = shared cache disabled
	// plans holds every container of the pinned sequence that has
	// metadata, planned and cut before the first read; read-only after.
	plans map[container.ID]cache.ReadPlan

	mu          sync.Mutex // the counters below
	sharedHits  int
	sharedJoins int
	rangedReads int
	rangedSpans int
	rangedBytes int64
}

// newRestoreIO builds the fetch layer for one pinned request sequence read
// over `threads` channels. metas is the metadata memo of the pinned
// resolution pass — exactly the state the sequence was resolved against,
// so plans derived from it match what the spans will serve. Every container
// is planned here, in first-need order, and the long reads among them cut
// (cache.Split): the requests a restore issues are a function of the
// sequence, the metas, threads and the cost model, fixed before it reads a
// byte.
func newRestoreIO(n *LNode, containers *container.Store, seq []cache.Request, metas map[container.ID]*container.Meta, threads int) *restoreIO {
	rio := &restoreIO{containers: containers.Gated(threads), shared: n.repo.RestoreIO}
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
	costs := n.repo.Config.Costs
	plans := make([]cache.ReadPlan, len(order))
	ms := make([]*container.Meta, len(order))
	for i, id := range order {
		ms[i] = metas[id]
		plans[i] = cache.Plan(ms[i], need[id], costs)
	}
	cache.Split(plans, ms, threads, costs)
	rio.plans = make(map[container.ID]cache.ReadPlan, len(order))
	for i, id := range order {
		rio.plans[id] = plans[i]
	}
	return rio
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
	p, planned := rio.plans[id]
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
