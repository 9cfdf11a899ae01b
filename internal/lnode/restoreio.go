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
//     singleflight: one OSS GET per container node-wide, charged to the
//     one job that runs it; concurrent requesters join for free.
//
// The layer is safe for concurrent use by the LAW prefetch workers.
type restoreIO struct {
	containers *container.Store     // this job's metered view
	session    *cache.SharedSession // nil = shared cache disabled
	metas      map[container.ID]*container.Meta
	need       map[container.ID]map[fingerprint.FP]bool
	costs      simclock.Costs

	mu          sync.Mutex
	plans       map[container.ID]cache.ReadPlan
	sharedHits  int
	sharedJoins int
	rangedReads int
	rangedSpans int
	rangedBytes int64
}

// newRestoreIO builds the fetch layer for one pinned request sequence.
// metas is the metadata memo of the pinned resolution pass — exactly the
// state the sequence was resolved against, so plans derived from it match
// what the spans will serve. close the returned layer when the job ends.
func newRestoreIO(n *LNode, containers *container.Store, seq []cache.Request, metas map[container.ID]*container.Meta) *restoreIO {
	rio := &restoreIO{
		containers: containers,
		metas:      metas,
		costs:      n.repo.Config.Costs,
		plans:      make(map[container.ID]cache.ReadPlan),
	}
	if n.repo.RestoreIO != nil {
		rio.session = n.repo.RestoreIO.NewSession()
	}
	rio.need = make(map[container.ID]map[fingerprint.FP]bool)
	for i := range seq {
		set := rio.need[seq[i].Container]
		if set == nil {
			set = make(map[fingerprint.FP]bool)
			rio.need[seq[i].Container] = set
		}
		set[seq[i].FP] = true
	}
	return rio
}

// close releases the job's shared-cache references.
func (rio *restoreIO) close() {
	if rio.session != nil {
		rio.session.Close()
	}
}

// plan returns the memoized read plan for id (ok=false when the
// resolution pass has no metadata for id).
func (rio *restoreIO) plan(id container.ID) (cache.ReadPlan, bool) {
	need, m := rio.need[id], rio.metas[id]
	if need == nil || m == nil {
		return cache.ReadPlan{}, false
	}
	rio.mu.Lock()
	defer rio.mu.Unlock()
	p, ok := rio.plans[id]
	if !ok {
		p = cache.Plan(m, need, rio.costs)
		rio.plans[id] = p
	}
	return p, true
}

// fetch is the cache.Fetcher the restore policy (and prefetcher) use.
func (rio *restoreIO) fetch(id container.ID) (*container.Container, error) {
	if rio.session != nil {
		if c, ok := rio.session.Get(id); ok {
			rio.mu.Lock()
			rio.sharedHits++
			rio.mu.Unlock()
			return c, nil
		}
	}
	if p, ok := rio.plan(id); ok && !p.Full {
		c, err := rio.containers.ReadSpans(id, p.Spans)
		if err != nil {
			return nil, err
		}
		rio.mu.Lock()
		rio.rangedReads++
		rio.rangedSpans += len(p.Spans)
		rio.rangedBytes += p.SpanBytes
		rio.mu.Unlock()
		return c, nil
	}
	if rio.session == nil {
		return rio.containers.Read(id)
	}
	c, src, err := rio.session.Fetch(id, func() (*container.Container, error) {
		return rio.containers.Read(id)
	})
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
