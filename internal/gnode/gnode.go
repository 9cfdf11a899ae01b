// Package gnode implements SLIMSTORE's offline space-management node
// (paper §V-B, §VI): global reverse deduplication against the exact
// fingerprint index, sparse container compaction (SCC), and version
// collection. All G-node work runs in the background, independent of the
// online deduplicate/restore path, and is deliberately biased toward new
// versions: storage reorganisation only ever deletes or moves data that
// old versions reference, never disturbing the newest version's layout.
//
// Every pass has the same shape (DESIGN.md §8): reads fan out across the
// maintenance worker pool (core.Repo.ForEach / ForEachOrdered, width
// Config.MaintWorkers), one goroutine decides in a canonical order, one
// commit makes the decision durable, and the physical container rewrites
// fan out again (rewriteAll). Widths only overlap OSS round trips: any
// width, including the serial one, produces bit-identical stores.
package gnode

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/journal"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
)

// GNode runs offline space-management jobs against a shared Repo.
//
// maintMu serialises the decide/commit step of every maintenance job
// (reverse dedup, SCC, version collection, full sweep, scrub) — the
// paper's deployment has exactly one G-node (§III-B), so offline commits
// are sequential by design, and serialising them keeps their
// read-modify-write cycles over container metadata trivially safe. The
// read-heavy phases (container scans, index probes, scrub verification)
// run OUTSIDE the mutex across a bounded worker pool, validated by the
// repo's maintenance epoch before their results are committed
// (DESIGN.md §8). Online L-node traffic is NOT behind this mutex; it
// synchronises with maintenance through the file and container locks
// (core.FileLocks / core.ContainerLocks). maintMu remains the top of the
// lock order: it is taken before any file or container lock and never
// the other way around.
type GNode struct {
	repo    *core.Repo
	acct    *simclock.Account
	maintMu core.MaintLock
}

// New returns a G-node. Its I/O is charged to an internal account
// (offline work: never part of online job throughput).
func New(repo *core.Repo) *GNode {
	return &GNode{repo: repo, acct: simclock.NewAccount()}
}

// Account exposes the G-node's resource account (for experiments that
// report offline costs).
func (g *GNode) Account() *simclock.Account { return g.acct }

func (g *GNode) containers() *container.Store { return g.repo.ContainersFor(g.acct) }
func (g *GNode) recipes() *recipe.Store       { return g.repo.RecipesFor(g.acct) }

// ---------------------------------------------------------------------------
// Global reverse deduplication (§VI-A).

// ReverseDedupStats reports one reverse-deduplication pass.
type ReverseDedupStats struct {
	ContainersScanned   int
	ChunksScanned       int
	BloomSkips          int64 // unique chunks filtered without an index read
	DuplicatesRemoved   int   // old copies marked deleted
	BytesDeduplicated   int64 // payload bytes of removed old copies
	IndexInserts        int   // first-copy registrations
	ContainersRewritten int   // old containers physically compacted
	BytesReclaimed      int64 // physical bytes freed by rewrites
}

// ReverseDedup filters the chunks of newly written containers through the
// global index. A chunk already stored in an *older* container is an exact
// duplicate the L-node missed: the old copy is marked deleted (preserving
// the new version's layout) and the global index is repointed at the new
// container. Old containers whose stale proportion crosses the configured
// threshold are physically rewritten.
//
// The pass is a fan-out/fan-in pipeline (DESIGN.md §8): container scans,
// index probes, and old-home prefetches run OUTSIDE maintMu across the
// maintenance worker pool at a sampled maintenance epoch; the
// decide/commit step then takes maintMu, validates the epoch, and merges
// the probe results deterministically (sorted container order, chunk
// order within) into one group-committed index batch. Physical rewrites
// run after the commit, outside maintMu, under the container stripe
// locks. Results are bit-identical at any worker width.
func (g *GNode) ReverseDedup(newContainers []container.ID) (*ReverseDedupStats, error) {
	// Canonicalise the work list: the decide phase follows sorted unique
	// container order, so the outcome is independent of list order and of
	// how the scan fan-out interleaves.
	ids := append([]container.ID(nil), newContainers...)
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	ids = uniqueIDs(ids)
	cs := g.containers()

	var rewrites []*container.Meta
	stats, err := optimistic(g, "reverse dedup", 3, func() (*rdPrep, error) {
		return g.rdPrepare(cs, ids)
	}, func(prep *rdPrep) (st *ReverseDedupStats, err error) {
		st, rewrites, err = g.rdCommit(cs, ids, prep)
		return st, err
	})
	if err != nil {
		return nil, err
	}
	stats.ContainersRewritten, stats.BytesReclaimed, err = g.rewriteAll(cs, rewrites, nil)
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// optimistic runs a maintenance pass as read-then-commit with bounded
// optimism: read runs outside maintMu at a sampled maintenance epoch, and
// commit runs under maintMu once the epoch is confirmed unchanged — no
// maintenance commit invalidated what read saw. A read that was raced is
// redone; after `attempts` of those (a storm of concurrent maintenance)
// the read itself runs under the lock, which cannot be raced. A read
// error is returned as "gnode: <pass>: …"; commit's comes back as it is.
func optimistic[P, R any](g *GNode, pass string, attempts int, read func() (P, error), commit func(P) (R, error)) (R, error) {
	for attempt := 0; ; attempt++ {
		locked := attempt >= attempts
		if locked {
			g.maintMu.Lock()
		}
		epoch := g.repo.MaintEpoch()
		p, err := read()
		if err != nil {
			if locked {
				g.maintMu.Unlock()
			}
			var none R
			return none, fmt.Errorf("gnode: %s: %w", pass, err)
		}
		if !locked {
			g.maintMu.Lock()
			if g.repo.MaintEpoch() != epoch {
				g.maintMu.Unlock()
				continue
			}
		}
		r, err := commit(p)
		g.maintMu.Unlock()
		return r, err
	}
}

// rdPrep carries the read-only phase of a reverse-dedup pass: container
// scans, batched index probe results, and prefetched old-home metadata.
type rdPrep struct {
	scans   []*container.Meta // per ids[i]; nil → container gone (advisory list)
	scanned map[container.ID]*container.Meta

	probeFPs []fingerprint.FP // unique live fingerprints, first-encounter order
	probeID  map[fingerprint.FP]container.ID
	skips    int

	olds   map[container.ID]*container.Meta // old homes the decide phase may mark
	oldErr map[container.ID]error
}

// rdPrepare runs every read of a reverse-dedup pass across the worker
// pool: parallel meta scans of the new containers, one batched global
// index probe over the unique live fingerprints, then parallel meta
// prefetches of the old homes those probes point at.
func (g *GNode) rdPrepare(cs *container.Store, ids []container.ID) (*rdPrep, error) {
	p := &rdPrep{
		scans:   make([]*container.Meta, len(ids)),
		scanned: make(map[container.ID]*container.Meta, len(ids)),
	}
	err := g.repo.ForEach(len(ids), func(i int) error {
		m, err := cs.ReadMeta(ids[i])
		if err != nil {
			// The list is advisory (captured at backup time); a container
			// scrub-quarantined or swept since then simply has nothing left
			// to deduplicate.
			if errors.Is(err, oss.ErrNotFound) {
				return nil
			}
			return err
		}
		p.scans[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if p.scans[i] != nil {
			p.scanned[id] = p.scans[i]
		}
	}

	// One probe per distinct live fingerprint; in-pass duplicates are
	// resolved by the decide phase's overlay, exactly as the serial loop's
	// later Gets would observe its earlier Puts.
	seen := make(map[fingerprint.FP]bool)
	for _, m := range p.scans {
		if m == nil {
			continue
		}
		for i := range m.Chunks {
			if cm := &m.Chunks[i]; !cm.Deleted && !seen[cm.FP] {
				seen[cm.FP] = true
				p.probeFPs = append(p.probeFPs, cm.FP)
			}
		}
	}
	gids, found, skips, err := g.repo.Global.GetBatch(p.probeFPs)
	if err != nil {
		return nil, err
	}
	p.skips = skips
	p.probeID = make(map[fingerprint.FP]container.ID)
	for i, fp := range p.probeFPs {
		if found[i] {
			p.probeID[fp] = gids[i]
		}
	}

	// Prefetch the metadata of old homes outside the lock; the decide
	// phase only copies them. Errors are recorded, not raised — a probe
	// hit may be stale, and staleness is the epoch check's call to make.
	var oldIDs []container.ID
	seenOld := make(map[container.ID]bool)
	for _, fp := range p.probeFPs {
		oid, ok := p.probeID[fp]
		if !ok || seenOld[oid] {
			continue
		}
		seenOld[oid] = true
		if _, isNew := p.scanned[oid]; !isNew {
			oldIDs = append(oldIDs, oid)
		}
	}
	p.olds = make(map[container.ID]*container.Meta, len(oldIDs))
	p.oldErr = make(map[container.ID]error)
	var mu sync.Mutex
	err = g.repo.ForEach(len(oldIDs), func(i int) error {
		m, err := cs.ReadMeta(oldIDs[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			p.oldErr[oldIDs[i]] = err
		} else {
			p.olds[oldIDs[i]] = m
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// rdCommit is the single-threaded decide/commit step, run under maintMu
// over a validated prepare: it replays the serial algorithm over the
// batched probe results (an overlay map supplies Get-sees-own-Puts
// semantics), group-commits the index mutations, syncs them durable,
// persists the metadata marks, and bumps the maintenance epoch. It
// returns the metas whose stale proportion now warrants a rewrite; the
// rewrites themselves run after maintMu is released.
func (g *GNode) rdCommit(cs *container.Store, ids []container.ID, p *rdPrep) (*ReverseDedupStats, []*container.Meta, error) {
	stats := &ReverseDedupStats{BloomSkips: int64(p.skips)}
	gi := g.repo.Global

	dirty := make(map[container.ID]*container.Meta)
	getDirty := func(id container.ID) (*container.Meta, error) {
		if m := dirty[id]; m != nil {
			return m, nil
		}
		src := p.scanned[id]
		if src == nil {
			if err := p.oldErr[id]; err != nil {
				return nil, err
			}
			src = p.olds[id]
		}
		if src == nil {
			// Not prefetched (a probe target surfaced by the overlay);
			// read it here, under the lock.
			m, err := cs.ReadMeta(id)
			if err != nil {
				return nil, err
			}
			src = m
		}
		cp := *src
		cp.Chunks = append([]container.ChunkMeta(nil), src.Chunks...)
		dirty[id] = &cp
		return &cp, nil
	}

	// overlay carries this pass's own repoints so later chunks observe
	// earlier decisions, exactly like the serial loop's index writes.
	overlay := make(map[fingerprint.FP]container.ID)
	var batch []globalindex.Entry
	for i, id := range ids {
		m := p.scans[i]
		if m == nil {
			continue
		}
		stats.ContainersScanned++
		for j := range m.Chunks {
			cm := &m.Chunks[j]
			// A copy this pass already marked (dirty mirrors the scan chunk
			// for chunk) must not decide again: it would delete the copy it
			// lost to. A pass re-run after a crash between sync and marks.
			if d := dirty[id]; cm.Deleted || d != nil && d.Chunks[j].Deleted {
				continue
			}
			stats.ChunksScanned++
			oldID, found := overlay[cm.FP]
			if !found {
				oldID, found = p.probeID[cm.FP]
			}
			switch {
			case !found:
				// First copy anywhere: register it.
				batch = append(batch, globalindex.Entry{FP: cm.FP, ID: id})
				overlay[cm.FP] = id
				stats.IndexInserts++
			case oldID == id:
				// Already registered to this container (idempotent rerun).
			default:
				// Exact duplicate. Reverse rule: delete the OLD copy, keep
				// the new version's layout intact.
				// An index entry may outlive its container (a crash after a
				// drop loses the unsynced deletes): nothing to mark, repoint.
				om, err := getDirty(oldID)
				if err != nil && !errors.Is(err, oss.ErrNotFound) {
					return nil, nil, err
				}
				if err == nil {
					if ocm := om.Find(cm.FP); ocm != nil && !ocm.Deleted {
						ocm.Deleted = true
						stats.DuplicatesRemoved++
						stats.BytesDeduplicated += int64(ocm.Size)
					}
				}
				batch = append(batch, globalindex.Entry{FP: cm.FP, ID: id})
				overlay[cm.FP] = id
			}
		}
	}

	if err := gi.PutBatch(batch); err != nil {
		return nil, nil, err
	}
	// Make the repoints durable before any metadata mark or physical
	// rewrite: a rewrite destroys the old copies, and if a crash lost the
	// buffered index mutations, restores redirecting through the index
	// would dangle.
	if err := gi.Sync(); err != nil {
		return nil, nil, err
	}

	// Persist metadata marks (fan-out: distinct containers, no ordering
	// dependency between them).
	dids := make([]container.ID, 0, len(dirty))
	for id := range dirty {
		dids = append(dids, id)
	}
	sort.Slice(dids, func(a, b int) bool { return dids[a] < dids[b] })
	if err := g.repo.ForEach(len(dids), func(i int) error {
		return cs.WriteMeta(dirty[dids[i]])
	}); err != nil {
		return nil, nil, err
	}
	if len(batch) > 0 || len(dids) > 0 {
		g.repo.BumpMaintEpoch()
	}

	var rewrites []*container.Meta
	for _, id := range dids {
		if m := dirty[id]; m.StaleProportion() > g.repo.Config.RewriteStaleThreshold {
			rewrites = append(rewrites, m)
		}
	}
	return stats, rewrites, nil
}

// rewriteAll physically compacts the containers a commit step marked past
// the stale threshold, across the worker pool; it is the rewrite phase of
// both reverse dedup and SCC. Each rewrite is individually journaled (its
// own KindRewrite record) and serialised by its container stripe lock, so
// it needs no maintenance mutex and concurrent maintenance stays correct;
// a container swept concurrently just loses its compaction opportunity
// (tolerated NotFound). held, when non-nil, parallels metas with payloads
// the caller already fetched and verified (see core.RewriteContainer for
// when one is used); a payload nobody holds — reverse dedup's, an SCC
// source predicted to stay — is read here, by a plan over its live chunks
// cut like any other (schedule). Returns the containers rewritten and
// bytes freed.
func (g *GNode) rewriteAll(cs *container.Store, metas []*container.Meta, held []*container.Container) (rewritten int, freed int64, err error) {
	if held == nil {
		held = make([]*container.Container, len(metas))
	}
	plans := make([]cache.ReadPlan, len(metas))
	for i, m := range metas {
		if held[i] != nil {
			continue
		}
		// The planner fetches one record per fingerprint: a container that
		// holds one twice is read whole, or the rewrite would miss a record.
		live := make(map[fingerprint.FP]bool, len(m.Chunks)) // true: a chunk to keep
		for j := range m.Chunks {
			cm := &m.Chunks[j]
			_, twice := live[cm.FP]
			plans[i].Full = plans[i].Full || twice
			live[cm.FP] = !cm.Deleted
		}
		if !plans[i].Full {
			plans[i] = cache.Plan(m, live, g.repo.Config.Costs)
		}
	}
	gated := g.schedule(cs, plans, metas)
	var mu sync.Mutex
	err = g.repo.ForEach(len(metas), func(i int) error {
		n, err := int64(0), error(nil)
		if held[i] == nil {
			held[i], err = gated.ReadSpans(metas[i].ID, plans[i].Reads)
		}
		if err == nil {
			n, err = g.repo.RewriteContainer(gated, metas[i], held[i])
		}
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) {
				return nil
			}
			return fmt.Errorf("gnode: rewrite %s: %w", metas[i].ID, err)
		}
		mu.Lock()
		rewritten++
		freed += n
		mu.Unlock()
		return nil
	})
	return rewritten, freed, err
}

// schedule cuts the long reads among one pass's plans so that its channels
// share the bytes (cache.Split over MaintWorkers; plans[i] was made from
// metas[i], and a zero plan — a container the pass does not read — adds
// nothing) and returns the view of cs every read of the pass goes through:
// one gate, so at most MaintWorkers data requests are in flight however
// the pool and a read's own requests multiply out. A serial pool cuts
// nothing and reads through cs itself, one request after another.
func (g *GNode) schedule(cs *container.Store, plans []cache.ReadPlan, metas []*container.Meta) *container.Store {
	w := g.repo.Config.MaintWorkers
	cache.Split(plans, metas, w, g.repo.Config.Costs)
	return cs.Gated(w)
}

// uniqueIDs collapses adjacent duplicates in a sorted ID slice.
func uniqueIDs(ids []container.ID) []container.ID {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Sparse container compaction (§V-B).

// SCCStats reports one compaction pass.
type SCCStats struct {
	SparseContainers int
	ChunksMoved      int
	BytesMoved       int64
	NewContainers    []container.ID
}

// CompactSparse merges the chunks that (fileID, version) references out of
// its sparse containers into fresh, dense containers, updates the
// version's recipe in place, repoints the global index, and associates the
// drained sparse containers with the version as garbage. The benefit
// applies to the *current* version immediately (unlike HAR, which rewrites
// during the next backup).
//
// The pass follows the §8 phase shape under maintMu and the file lock:
// the planned, verified reads of the sources share the maintenance
// channels while one goroutine appends the needed chunks in sparse/recipe
// order (so the new containers, the journal record, the recipe and the
// stats are bit-identical at any width); one journal commit; an apply
// whose marks fan out; then the sources past the stale threshold are
// rewritten in parallel, each from the payload the prepare already fetched
// — no byte of a source is read twice. At most MaintWorkers unconsumed
// reads are resident at a time, plus the payloads of the sources that will
// be rewritten.
func (g *GNode) CompactSparse(fileID string, version int, sparse []container.ID) (*SCCStats, error) {
	stats := &SCCStats{SparseContainers: len(sparse)}
	if len(sparse) == 0 {
		return stats, nil
	}
	g.maintMu.Lock()
	defer g.maintMu.Unlock()
	// SCC rewrites the version's recipe in place; exclusive vs backups and
	// restores of the file.
	g.repo.Files.Lock(fileID)
	defer g.repo.Files.Unlock(fileID)

	cs := g.containers()
	rs := g.recipes()

	sparseSet := make(map[container.ID]bool, len(sparse))
	for _, id := range sparse {
		sparseSet[id] = true
	}

	r, err := rs.GetRecipe(fileID, version)
	if err != nil {
		// Compaction requests are advisory; the version may have been
		// deleted since the backup that queued it.
		if errors.Is(err, oss.ErrNotFound) {
			return stats, nil
		}
		return nil, fmt.Errorf("gnode: scc: %w", err)
	}

	// Collect the fingerprints this version needs from each sparse
	// container, in recipe order for locality of the new layout.
	needed := make(map[container.ID][]fingerprint.FP)
	wanted := make(map[fingerprint.FP]bool)
	r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
		if sparseSet[rec.Container] && !wanted[rec.FP] {
			wanted[rec.FP] = true
			needed[rec.Container] = append(needed[rec.Container], rec.FP)
		}
		return true
	})

	// Prepare: copy the needed chunks into fresh containers. The sources
	// stay untouched and nothing references the copies yet, so a crash
	// here leaks only unreferenced containers — FullSweep reclaims them.
	// Every source read is planned from the (cached) metadata before the
	// first byte moves, as a restore's are (DESIGN.md §8): a source the
	// apply's marks will push past the rewrite threshold is read whole —
	// every live chunk verified, the payload held for the rewrite — and one
	// that stays only where the chunks it gives up lie, when the planner
	// prices that cheaper. A read verifies what it returns, so a corrupt
	// chunk aborts the pass rather than being laundered into a freshly
	// checksummed container. The sources are pinned meanwhile: a plan is good
	// for the layout it was made from. Reads land in per-index slots; the
	// builder consumes them in order and is synchronous, so every
	// destination put is durable before the commit.
	builder := container.NewBuilder(cs)
	moved := make(map[fingerprint.FP]container.ID)
	newSet := make(map[container.ID]bool)
	held := make([]*container.Container, len(sparse))
	metas := make([]*container.Meta, len(sparse)) // nil: nothing to read
	plans := make([]cache.ReadPlan, len(sparse))
	rewrite := make([]bool, len(sparse)) // predicted; the fresh meta decides below
	release := g.repo.CLocks.Pin(sparse)
	err = g.repo.ForEach(len(sparse), func(i int) (err error) {
		// A quarantined or already-collected source has no chunks to move.
		if metas[i], err = cs.ReadMeta(sparse[i]); errors.Is(err, oss.ErrNotFound) {
			return nil
		}
		return err
	})
	if err != nil {
		release()
		return nil, fmt.Errorf("gnode: scc: %w", err)
	}
	for i, m := range metas {
		if m == nil {
			continue
		}
		// A source an earlier pass drained — the recipe still names it, its
		// chunks have moved — is not read to move nothing.
		need := make(map[fingerprint.FP]bool)
		for _, fp := range needed[sparse[i]] {
			if cm := m.Find(fp); cm != nil && !cm.Deleted {
				need[fp] = true
			}
		}
		rewrite[i] = staleAfter(m, wanted) > g.repo.Config.RewriteStaleThreshold
		switch {
		case len(need) == 0:
			metas[i] = nil
		case rewrite[i]:
			plans[i].Full = true
		default:
			plans[i] = cache.Plan(m, need, g.repo.Config.Costs)
		}
	}
	gated := g.schedule(cs, plans, metas)
	err = g.repo.ForEachOrdered(len(sparse), func(i int) (err error) {
		if metas[i] != nil {
			held[i], err = gated.ReadSpans(sparse[i], plans[i].Reads)
		}
		if err != nil && !errors.Is(err, oss.ErrNotFound) {
			return fmt.Errorf("gnode: scc read %s: %w", sparse[i], err)
		}
		return nil
	}, func(i int) error {
		c := held[i]
		if c == nil {
			return nil
		}
		if !rewrite[i] {
			held[i] = nil // only a payload the rewrite will want stays resident
		}
		for _, fp := range needed[sparse[i]] {
			cm := c.Meta.Find(fp)
			if cm == nil || cm.Deleted {
				continue // already moved by an earlier pass
			}
			data, err := c.ChunkData(cm)
			if err != nil {
				return err
			}
			nid, err := builder.Add(fp, data)
			if err != nil {
				return err
			}
			moved[fp] = nid
			newSet[nid] = true
			stats.ChunksMoved++
			stats.BytesMoved += int64(cm.Size)
		}
		return nil
	})
	release()
	if err != nil {
		return nil, err
	}
	if err := builder.Flush(); err != nil {
		return nil, err
	}
	if len(moved) == 0 {
		return stats, nil
	}
	for id := range newSet {
		stats.NewContainers = append(stats.NewContainers, id)
	}
	sort.Slice(stats.NewContainers, func(a, b int) bool { return stats.NewContainers[a] < stats.NewContainers[b] })

	// Commit: one journal put is the atomic transition point. Before it,
	// the compaction never happened; after it, replay completes it.
	rec := &journal.Record{
		Kind:    journal.KindSCC,
		FileID:  fileID,
		Version: version,
		Sparse:  journal.RawIDs(sparse),
		New:     journal.RawIDs(stats.NewContainers),
	}
	rec.SetMoved(moved)
	key, err := g.repo.Journal.Commit(rec)
	if err != nil {
		return nil, err
	}

	// Apply: repoint index, rewrite recipe and catalog, mark the sources'
	// moved chunks deleted — all idempotent (shared with journal replay).
	if err := g.repo.ApplySCC(rec, cs, rs, r); err != nil {
		return nil, err
	}
	if err := g.repo.Journal.Remove(key); err != nil {
		return nil, err
	}

	// The moved bytes are dead weight in the sparse containers; rewrite
	// any past the stale threshold so the paper's Fig 9 property holds:
	// compaction shrinks the storage attributable to old versions rather
	// than growing totals. Each rewrite journals independently. The fresh
	// metas are meta-cache hits: the apply has just read or written each.
	var rewrites []*container.Meta
	var payloads []*container.Container
	for i, id := range sparse {
		m, err := cs.ReadMeta(id)
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) { // swept or quarantined
				continue
			}
			return nil, fmt.Errorf("gnode: scc: %w", err)
		}
		if m.StaleProportion() > g.repo.Config.RewriteStaleThreshold {
			rewrites = append(rewrites, m)
			payloads = append(payloads, held[i])
		}
	}
	if _, _, err := g.rewriteAll(cs, rewrites, payloads); err != nil {
		return nil, err
	}
	return stats, nil
}

// staleAfter predicts a source's stale proportion once the SCC apply has
// marked every wanted chunk it still holds live.
func staleAfter(m *container.Meta, wanted map[fingerprint.FP]bool) float64 {
	if len(m.Chunks) == 0 {
		return 0
	}
	stale := 0
	for i := range m.Chunks {
		if cm := &m.Chunks[i]; cm.Deleted || wanted[cm.FP] {
			stale++
		}
	}
	return float64(stale) / float64(len(m.Chunks))
}

// Optimize is the offline pass for one finished backup: reverse
// deduplication over the containers the backup wrote, then compaction of
// the containers it flagged sparse. It stops at the first error — SCC does
// not run on top of a reverse dedup that failed part-way.
func (g *GNode) Optimize(fileID string, version int, newContainers, sparse []container.ID) (*ReverseDedupStats, *SCCStats, error) {
	rd, err := g.ReverseDedup(newContainers)
	if err != nil {
		return nil, nil, err
	}
	scc, err := g.CompactSparse(fileID, version, sparse)
	if err != nil {
		return rd, nil, err
	}
	return rd, scc, nil
}

// ---------------------------------------------------------------------------
// Version collection (§VI-B).

// GCStats reports one version deletion.
type GCStats struct {
	GarbageCandidates   int
	ContainersCollected int
	BytesReclaimed      int64
	IndexEntriesRemoved int
}

// DeleteVersion removes a backup version. The mark phase already ran
// during backup (garbage containers are associated with the version);
// here only the sweep runs: candidates still referenced by any live
// version are kept, the rest are deleted along with their index entries.
//
// Versions should be deleted oldest-first (the retention-window pattern
// the paper assumes); the sweep re-validates references against the live
// catalog, so out-of-order deletion degrades to keeping extra data, never
// to losing referenced data.
func (g *GNode) DeleteVersion(fileID string, version int) (*GCStats, error) {
	g.maintMu.Lock()
	defer g.maintMu.Unlock()
	g.repo.Files.Lock(fileID)
	defer g.repo.Files.Unlock(fileID)

	stats := &GCStats{}
	cs := g.containers()
	rs := g.recipes()

	info, err := rs.GetInfo(fileID, version)
	if err != nil {
		return nil, fmt.Errorf("gnode: delete version: %w", err)
	}
	stats.GarbageCandidates = len(info.Garbage)

	// Commit the intent (the catalog entry holding the garbage list is
	// about to be deleted; the journal record preserves it so a crashed
	// sweep can resume), then apply and clear the record.
	rec := &journal.Record{
		Kind:    journal.KindGC,
		FileID:  fileID,
		Version: version,
		Garbage: journal.RawIDs(info.Garbage),
	}
	key, err := g.repo.Journal.Commit(rec)
	if err != nil {
		return nil, err
	}
	applied, err := g.repo.ApplyGC(rec, cs, rs)
	if err != nil {
		return nil, err
	}
	if err := g.repo.Journal.Remove(key); err != nil {
		return nil, err
	}
	stats.ContainersCollected = applied.ContainersCollected
	stats.BytesReclaimed = applied.BytesReclaimed
	stats.IndexEntriesRemoved = applied.IndexEntriesRemoved
	return stats, nil
}

// ---------------------------------------------------------------------------

// AuditStats reports a full mark-and-sweep audit.
type AuditStats struct {
	ContainersMarked int
	ContainersSwept  int
	BytesReclaimed   int64
	// JournalReplayed counts half-committed journal records rolled
	// forward before the sweep.
	JournalReplayed int
}

// FullSweep is the classic mark-and-sweep fallback (§II): it first rolls
// forward any half-committed journal records left by a crashed peer, then
// marks every container reachable from any live recipe — resolving
// reverse-dedup and SCC redirects through the global index — and deletes
// the rest (including containers a crash stranded before their operation
// committed, and payloads a crash left without their metadata). It is an
// audit/repair tool; normal operation uses the per-version garbage lists.
func (g *GNode) FullSweep() (*AuditStats, error) {
	g.maintMu.Lock()
	defer g.maintMu.Unlock()
	// Stop the world: a container an in-flight backup has uploaded is
	// unreachable until its recipe lands, and the sweep would reclaim it.
	release := g.repo.Files.LockAll()
	defer release()

	replayed, err := g.repo.ReplayJournal()
	if err != nil {
		return nil, fmt.Errorf("gnode: full sweep: %w", err)
	}
	cs := g.containers()
	rs := g.recipes()

	files, err := rs.Files()
	if err != nil {
		return nil, err
	}
	type fv struct {
		file    string
		version int
	}
	var work []fv
	for _, f := range files {
		versions, err := rs.Versions(f)
		if err != nil {
			return nil, err
		}
		for _, v := range versions {
			work = append(work, fv{f, v})
		}
	}

	// Mark phase, fanned out per version: each worker walks one recipe,
	// marking home containers directly and batching the global-index
	// redirect lookups for chunks whose home no longer holds them. The
	// world is stopped (LockAll above), so the walks are pure reads; the
	// union of the per-version mark sets is order-independent.
	var (
		markMu sync.Mutex
		marked = make(map[container.ID]bool)
	)
	err = g.repo.ForEach(len(work), func(wi int) error {
		r, err := rs.GetRecipe(work[wi].file, work[wi].version)
		if err != nil {
			return err
		}
		local := make(map[container.ID]bool)
		var misses []fingerprint.FP
		r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
			m, err := cs.ReadMeta(rec.Container)
			if err == nil {
				if cm := m.Find(rec.FP); cm != nil && !cm.Deleted {
					local[rec.Container] = true
					return true
				}
			}
			misses = append(misses, rec.FP)
			return true
		})
		// Redirected chunks: mark the relocation targets in one probe.
		nids, found, _, err := g.repo.Global.GetBatch(misses)
		if err != nil {
			return err
		}
		for i := range misses {
			if found[i] {
				local[nids[i]] = true
			}
		}
		markMu.Lock()
		for id := range local {
			marked[id] = true
		}
		markMu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	all, orphans, err := cs.Scan()
	if err != nil {
		return nil, err
	}
	var unmarked []container.ID
	for _, id := range all {
		if !marked[id] {
			unmarked = append(unmarked, id)
		}
	}
	// Sweep phase: one drop of the whole set — its index deletes one synced
	// batch, whatever the width, then the objects fanned out.
	reclaimed, _, err := g.repo.DropContainers(cs, unmarked)
	if err != nil {
		return nil, err
	}
	// Payloads whose metadata never landed: no list names them, so no
	// index entry or recipe can.
	for _, id := range orphans {
		size, err := cs.DropOrphan(id)
		if err != nil {
			return nil, err
		}
		reclaimed += size
	}
	return &AuditStats{ContainersMarked: len(marked), ContainersSwept: len(unmarked) + len(orphans),
		BytesReclaimed: reclaimed, JournalReplayed: replayed}, nil
}
