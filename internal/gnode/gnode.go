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
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
)

// GNode runs offline space-management jobs against a shared Repo.
//
// maintMu serialises the decide/commit step of every maintenance job
// (reverse dedup, SCC, version collection, full sweep, scrub) — the
// paper's deployment has exactly one G-node (§III-B), so offline commits
// are sequential by design; their metadata writes, like the rewrites'
// outside it, go through container.Store.UpdateMeta. The read-heavy
// phases (container scans, index probes, scrub verification) run OUTSIDE
// the mutex across a bounded worker pool, validated by the repo's
// maintenance epoch before their results are committed (DESIGN.md §8).
// Online L-node traffic is NOT behind this mutex; a backup synchronises
// with maintenance through the file lock (core.FileLocks), a restore
// through its container pins (core.ContainerLocks). maintMu remains the
// top of the lock order: it is taken before any file or container lock and
// never the other way around.
type GNode struct {
	repo    *core.Repo
	acct    *simclock.Account
	maintMu core.MaintLock
	// rewriting counts reverse-dedup rewrite phases in flight outside maintMu,
	// whose unswitched payloads no meta names: FullSweep waits them out.
	rewriting sync.WaitGroup
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

// readMetas is core.Repo.ReadMetas across the maintenance worker pool: nil
// for a container gone, any other failure returned.
func (g *GNode) readMetas(cs *container.Store, ids []container.ID) ([]*container.Meta, error) {
	return g.repo.ReadMetas(cs, ids, g.repo.Config.MaintWorkers)
}

// rewriteStale is the deleted-chunk proportion past which a container is
// physically rewritten: the paper's 20 % (§VI-A).
const rewriteStale = 0.2

// ---------------------------------------------------------------------------
// Global reverse deduplication (§VI-A).

// ReverseDedupStats reports one reverse-deduplication pass.
type ReverseDedupStats struct {
	ContainersScanned   int
	ChunksScanned       int
	BloomSkips          int64 // probed fingerprints the index did not hold
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
	ids := slices.Clone(newContainers)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	cs := g.containers()

	var rewrites []*container.Meta
	stats, err := optimistic(g, "reverse dedup", 3, func() (*rdPrep, error) {
		return g.rdPrepare(cs, ids)
	}, func(prep *rdPrep) (st *ReverseDedupStats, err error) {
		if st, rewrites, err = g.rdCommit(cs, ids, prep); err == nil {
			g.rewriting.Add(1) // under maintMu, which a sweep holds while it waits
		}
		return st, err
	})
	if err != nil {
		return nil, err
	}
	stats.ContainersRewritten, stats.BytesReclaimed, err = g.rewriteAll(cs, rewrites)
	g.rewriting.Done()
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
	misses   int // probeFPs the index did not hold

	olds   map[container.ID]*container.Meta // old homes the decide phase may mark
	oldErr map[container.ID]error
}

// rdPrepare runs every read of a reverse-dedup pass across the worker
// pool: parallel meta scans of the new containers, one batched global
// index probe over the unique live fingerprints, then parallel meta
// prefetches of the old homes those probes point at.
func (g *GNode) rdPrepare(cs *container.Store, ids []container.ID) (*rdPrep, error) {
	// The list is advisory (captured at backup time); a container
	// scrub-quarantined or swept since then simply has nothing left to
	// deduplicate.
	scans, err := g.readMetas(cs, ids)
	if err != nil {
		return nil, err
	}
	p := &rdPrep{scans: scans, scanned: make(map[container.ID]*container.Meta, len(ids))}
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
	gids, found, misses, err := g.repo.Global.GetBatch(p.probeFPs)
	if err != nil {
		return nil, err
	}
	p.misses = misses
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
	stats := &ReverseDedupStats{BloomSkips: int64(p.misses)}
	gi := g.repo.Global

	dirty := make(map[container.ID]*container.Meta)
	marked := make(map[container.ID][]fingerprint.FP) // what this pass marked, per old home
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
						marked[oldID] = append(marked[oldID], cm.FP)
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

	// Persist the marks (fan-out: distinct containers, no ordering
	// dependency between them) on the metas current at their puts.
	dids := make([]container.ID, 0, len(dirty))
	for id := range dirty {
		dids = append(dids, id)
	}
	sort.Slice(dids, func(a, b int) bool { return dids[a] < dids[b] })
	metas := make([]*container.Meta, len(dids))
	if err := g.repo.ForEach(len(dids), func(i int) (err error) {
		metas[i], err = cs.UpdateMeta(dids[i], func(m *container.Meta) *container.Meta { return markAll(m, marked[dids[i]]) })
		return err
	}); err != nil {
		return nil, nil, err
	}
	if len(batch) > 0 || len(dids) > 0 {
		g.repo.BumpMaintEpoch()
	}

	var rewrites []*container.Meta
	for _, m := range metas {
		if m.StaleProportion() > rewriteStale {
			rewrites = append(rewrites, m)
		}
	}
	return stats, rewrites, nil
}

// rewriteAll is reverse dedup's rewrite phase: each container marked past
// the stale threshold is rebuilt and switched back to back, across the pool
// and outside maintMu; one swept or switched meanwhile loses its compaction
// opportunity (tolerated NotFound). Returns the containers rewritten and
// bytes freed.
func (g *GNode) rewriteAll(cs *container.Store, metas []*container.Meta) (rewritten int, freed int64, err error) {
	rebuild := g.rebuilder(cs, metas, nil)
	var mu sync.Mutex
	err = g.repo.ForEach(len(metas), func(i int) error {
		nm, n, err := rebuild(i)
		if err == nil {
			err = g.repo.Switch(cs, nm, metas[i].Payload)
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

// rebuilder plans the first halves of the rewrites of metas: rebuild(i)
// puts metas[i] compacted beside its payload (core.Repo.Rebuild) under an ID
// drawn here, in container order, so the store's bytes do not depend on the
// width. held, when non-nil, parallels metas with payloads already fetched
// and verified; one nobody holds is read by a plan over its live chunks.
func (g *GNode) rebuilder(cs *container.Store, metas []*container.Meta, held []*container.Container) func(i int) (*container.Meta, int64, error) {
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
	first := cs.AllocateIDs(len(metas))
	return func(i int) (*container.Meta, int64, error) {
		c := held[i]
		if c == nil {
			// A container another pass switched since metas[i] was read is
			// lost to this rewrite, as one swept is: the plan describes a
			// deleted payload. A failed read is checked again, after it.
			moved := func() error {
				if cur, err := cs.ReadMeta(metas[i].ID); err != nil || cur.Payload == metas[i].Payload {
					return err
				}
				return fmt.Errorf("gnode: rewrite %s: switched since planned: %w", metas[i].ID, oss.ErrNotFound)
			}
			err := moved()
			if err == nil {
				c, err = gated.ReadSpans(metas[i].ID, plans[i].Reads)
			}
			if err != nil {
				return nil, 0, cmp.Or(moved(), err)
			}
		}
		return g.repo.Rebuild(gated, metas[i], c, first+container.ID(i))
	}
}

// markAll applies a pass's marks by fingerprint to m, the meta current at
// the put (container.Store.UpdateMeta): it marks the chunk Meta.Find returns
// for each of fps, where live, and returns m if it marked one, else nil.
func markAll(m *container.Meta, fps []fingerprint.FP) (marked *container.Meta) {
	for _, fp := range fps {
		if cm := m.Find(fp); cm != nil && !cm.Deleted {
			cm.Deleted, marked = true, m
		}
	}
	return marked
}

// schedule cuts the long reads among one pass's plans so that its channels
// share the bytes (cache.Split over MaintWorkers; plans[i] was made from
// metas[i], and a zero plan — a container the pass does not read — adds
// nothing) and returns the view of cs every read of the pass goes through:
// one gate, so at most MaintWorkers data requests are in flight however
// the pool and a read's own requests multiply out, the longest waiting
// first. A serial pool cuts
// nothing and reads through cs itself, one request after another.
func (g *GNode) schedule(cs *container.Store, plans []cache.ReadPlan, metas []*container.Meta) *container.Store {
	w := g.repo.Config.MaintWorkers
	cache.Split(plans, metas, w, g.repo.Config.Costs)
	return cs.Gated(w)
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
// The pass follows the §8 phase shape under maintMu and the file lock: the
// planned, verified reads of the sources share the maintenance channels
// while one goroutine appends the needed chunks in sparse/recipe order, so
// the new containers, the index batch, the recipe and the stats are
// bit-identical at any width. The reads done, every mark is known: the
// sources past the stale threshold are compacted from the payloads the
// prepare holds — no byte is read twice — and put, unnamed, beside the last
// new container. Then the commit, in reverse dedup's order: the repoints
// synced, the catalog entry and recipe (commitRecipe), whose last put goes
// out beside one meta put per source — its marks, or the switch carrying
// them — and the old payloads' deletes. Every crash prefix is a state
// reverse dedup's commit or scrub's recipe fix also leaves: it loses no
// byte and at most leaks what FullSweep reclaims. A re-run before the
// recipe put redoes the pass; after it the recipe names no source, so the
// re-run moves nothing and returns: the sources keep the moved chunks,
// unmarked, until a deletion or a FullSweep drops them.
func (g *GNode) CompactSparse(fileID string, version int, sparse []container.ID) (*SCCStats, error) {
	stats := &SCCStats{SparseContainers: len(sparse)}
	if len(sparse) == 0 {
		return stats, nil
	}
	g.maintMu.Lock()
	defer g.maintMu.Unlock()
	// SCC rewrites the version's recipe in place, before it switches a
	// source (a restore resolves either recipe); exclusive vs other writers.
	g.repo.Files.Lock(fileID)
	defer g.repo.Files.Unlock(fileID)

	cs := g.containers()
	rs := g.recipes()

	sparseSet := make(map[container.ID]bool, len(sparse))
	for _, id := range sparse {
		sparseSet[id] = true
	}

	var r *recipe.Recipe
	var info *recipe.VersionInfo
	if err := g.wave(func() (err error) { r, err = rs.GetRecipe(fileID, version); return err },
		func() (err error) { info, err = rs.GetInfo(fileID, version); return err }); err != nil {
		// Compaction requests are advisory; the version may have been
		// deleted since the backup that queued it, or be one a crash left
		// uncatalogued, which FullSweep removes.
		if errors.Is(err, oss.ErrNotFound) {
			return stats, nil
		}
		return nil, fmt.Errorf("gnode: scc: %w", err)
	}

	// Collect the fingerprints this version needs from each sparse
	// container, in recipe order for locality of the new layout.
	needed := make(map[container.ID][]fingerprint.FP)
	wanted := make(map[fingerprint.FP]bool)
	var wantedFPs []fingerprint.FP
	r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
		if sparseSet[rec.Container] && !wanted[rec.FP] {
			wanted[rec.FP] = true
			wantedFPs = append(wantedFPs, rec.FP)
			needed[rec.Container] = append(needed[rec.Container], rec.FP)
		}
		return true
	})

	// Prepare: copy the needed chunks into fresh containers, which nothing
	// references yet — a crash here leaks only what FullSweep reclaims. Every
	// source read is planned from the (cached) metadata first (DESIGN.md §8):
	// a source the marks will push past the rewrite threshold is read whole,
	// every live chunk verified and the payload held for the rewrite, one
	// that stays only where the chunks it gives up lie, when the planner
	// prices that cheaper. A corrupt chunk aborts the pass rather than being
	// laundered into a freshly checksummed container. The sources are pinned
	// meanwhile: a plan is good for the layout it was made from. The builder
	// consumes the reads in order and puts every full container at once.
	builder := container.NewBuilder(cs)
	moved := make(map[fingerprint.FP]container.ID)
	held := make([]*container.Container, len(sparse))
	plans := make([]cache.ReadPlan, len(sparse))
	release := g.repo.CLocks.Pin(sparse)
	srcs, err := g.readMetas(cs, sparse) // nil: a source gone
	if err != nil {
		release()
		return nil, fmt.Errorf("gnode: scc: %w", err)
	}
	metas := slices.Clone(srcs) // nil: not read
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
		switch {
		case len(need) == 0:
			metas[i] = nil
		case markedCopy(m, wantedFPs).StaleProportion() > rewriteStale: // the marks decide below
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
		if !plans[i].Full {
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
			stats.ChunksMoved++
			stats.BytesMoved += int64(cm.Size)
		}
		return nil
	})
	release()
	if err != nil {
		return nil, err
	}
	if len(moved) == 0 {
		return stats, nil
	}
	batch := make([]globalindex.Entry, 0, len(moved))
	fps := make([]fingerprint.FP, 0, len(moved))
	for fp, nid := range moved {
		batch = append(batch, globalindex.Entry{FP: fp, ID: nid})
		fps = append(fps, fp)
		stats.NewContainers = append(stats.NewContainers, nid)
	}
	sort.Slice(batch, func(a, b int) bool { return bytes.Compare(batch[a].FP[:], batch[b].FP[:]) < 0 })
	slices.SortFunc(fps, func(a, b fingerprint.FP) int { return bytes.Compare(a[:], b[:]) })
	slices.Sort(stats.NewContainers)
	stats.NewContainers = slices.Compact(stats.NewContainers)

	// The marks are the moved chunks, wherever a source holds one live. A
	// source they push past the threshold — compaction shrinks what old
	// versions hold (Fig 9), not the totals — is rebuilt without them now;
	// no meta names its payload until the source's switch.
	var rewrites []*container.Meta
	var payloads []*container.Container
	var of []int // the source each rewrite compacts
	for i, m := range srcs {
		if m == nil {
			continue
		}
		if f := markedCopy(m, fps); f.StaleProportion() > rewriteStale {
			rewrites, payloads, of = append(rewrites, f), append(payloads, held[i]), append(of, i)
		}
	}
	rebuild := g.rebuilder(cs, rewrites, payloads)
	rebuilt := make([]*container.Meta, len(sparse))
	if err := g.wave(builder.Flush, func() error {
		return g.repo.ForEach(len(rewrites), func(k int) (err error) {
			rebuilt[of[k]], _, err = rebuild(k)
			return err
		})
	}); err != nil {
		return nil, err
	}

	// Index first, synced at once: restores redirect relocated chunks
	// through it, so neither the recipe nor a mark may get ahead of it. A
	// crash after the sync leaves copies only the index names; a redirect
	// that needs one keeps it through FullSweep, which drops the rest.
	if err := g.repo.Global.PutBatch(batch); err != nil {
		return nil, err
	}
	if err := g.repo.Global.Sync(); err != nil {
		return nil, err
	}
	// Recipe and catalog: this version's restores stop touching the sparse
	// sources, which become its garbage (§VI-B); then each source's marks.
	// A crash part-way leaves live duplicates, which only waste space, or
	// payloads no meta names. A source a concurrent rewrite switched is
	// marked on its current meta and, past the threshold, rewritten afresh.
	r.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
		if nid, ok := moved[cr.FP]; ok {
			cr.Container = nid
		}
		return true
	})
	if err := g.commitRecipe(rs, r, info, sparse, func() error {
		return g.repo.ForEach(len(sparse), func(i int) error {
			if nm := rebuilt[i]; nm != nil {
				if err := g.repo.Switch(cs, nm, srcs[i].Payload); !errors.Is(err, oss.ErrNotFound) {
					return err
				}
			}
			m, err := cs.UpdateMeta(sparse[i], func(m *container.Meta) *container.Meta { return markAll(m, fps) })
			if err == nil && m.StaleProportion() > rewriteStale {
				_, err = g.repo.RewriteContainer(cs, m, nil, cs.AllocateID())
			}
			if errors.Is(err, oss.ErrNotFound) {
				return nil // swept or rewritten meanwhile
			}
			return err
		})
	}); err != nil {
		return nil, err
	}
	g.repo.BumpMaintEpoch()
	return stats, nil
}

// markedCopy returns a copy of m with fps marked (markAll).
func markedCopy(m *container.Meta, fps []fingerprint.FP) *container.Meta {
	f := *m
	f.Chunks = slices.Clone(m.Chunks)
	markAll(&f, fps)
	return &f
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
// The catalog entry is the version: its put commits a backup, its delete
// commits a deletion (DESIGN.md §6). The entry is read for its garbage
// list and deleted, then the recipe, its index and the sketch go, then the
// candidates are dropped. A crash after the delete leaves a version fully
// gone, never one listed and broken; what it leaves behind no catalog entry
// names. Nothing retries a deletion that fails or crashes past the delete:
// its garbage stays unreclaimed until a FullSweep (Audit) runs.
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

	cs := g.containers()
	rs := g.recipes()

	info, err := rs.GetInfo(fileID, version)
	if err != nil {
		return nil, fmt.Errorf("gnode: delete version: %w", err)
	}
	if err := rs.DeleteInfo(fileID, version); err != nil {
		return nil, err
	}
	if err := rs.DeleteRecipe(fileID, version); err != nil {
		return nil, err
	}
	if err := g.repo.SimIndex.Remove(fileID, version); err != nil {
		return nil, err
	}
	stats := &GCStats{GarbageCandidates: len(info.Garbage)}
	if len(info.Garbage) == 0 {
		return stats, nil
	}
	live, err := liveContainerRefs(rs)
	if err != nil {
		return nil, err
	}
	var cands []container.ID
	for _, id := range info.Garbage {
		if !live[id] {
			cands = append(cands, id)
		}
	}
	pinned, err := g.redirectPins(cs, rs, cands)
	if err != nil {
		return nil, err
	}
	var drop []container.ID
	for _, id := range cands {
		if !pinned[id] { // a pinned one is still referenced (e.g. out-of-order deletion)
			drop = append(drop, id)
		}
	}
	stats.ContainersCollected = len(drop)
	if stats.BytesReclaimed, stats.IndexEntriesRemoved, err = g.repo.DropContainers(cs, drop); err != nil {
		return nil, err
	}
	return stats, nil
}

// liveContainerRefs scans the catalog for every container referenced by a
// live version.
func liveContainerRefs(rs *recipe.Store) (map[container.ID]bool, error) {
	live := make(map[container.ID]bool)
	files, err := rs.Files()
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		versions, err := rs.Versions(f)
		if err != nil {
			return nil, err
		}
		for _, v := range versions {
			info, err := rs.GetInfo(f, v)
			if err != nil {
				return nil, err
			}
			for _, id := range info.Containers {
				live[id] = true
			}
		}
	}
	return live, nil
}

// redirectPins reports which garbage candidates must survive because a
// live recipe redirects into them. Reverse dedup deletes an old copy of a
// chunk and repoints the global index at a *newer* container, so an old
// version's recipe — which still names the drained container — resolves
// the chunk through the index at restore time. The redirect target never
// appears in that version's catalog entry, so the info-based liveness
// check alone would let an out-of-order deletion (or a cross-file
// dependency) drop the only physical copy of a still-referenced chunk.
// This pass catches exactly those: a candidate is pinned when it is the
// index-canonical home of a fingerprint that some live recipe references
// via a different container.
func (g *GNode) redirectPins(cs *container.Store, rs *recipe.Store, cands []container.ID) (map[container.ID]bool, error) {
	// Fingerprints whose canonical copy sits in a candidate: one probe over
	// the live chunks of every candidate still there (the drop skips one
	// whose meta is gone).
	metas, err := g.readMetas(cs, cands)
	if err != nil {
		return nil, err
	}
	var fps []fingerprint.FP
	var homes []container.ID
	for j, m := range metas {
		if m == nil {
			continue
		}
		for i := range m.Chunks {
			if cm := &m.Chunks[i]; !cm.Deleted {
				fps = append(fps, cm.FP)
				homes = append(homes, cands[j])
			}
		}
	}
	cur, found, _, err := g.repo.Global.GetBatch(fps)
	if err != nil {
		return nil, err
	}
	own := make(map[fingerprint.FP]container.ID)
	for i, fp := range fps {
		if found[i] && cur[i] == homes[i] {
			own[fp] = homes[i]
		}
	}
	if len(own) == 0 {
		return nil, nil
	}

	pinned := make(map[container.ID]bool)
	files, err := rs.Files()
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		versions, err := rs.Versions(f)
		if err != nil {
			return nil, err
		}
		for _, v := range versions {
			rcp, err := rs.GetRecipe(f, v)
			if err != nil {
				return nil, err
			}
			rcp.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
				if cand, ok := own[cr.FP]; ok && cr.Container != cand {
					pinned[cand] = true
				}
				return len(pinned) < len(cands) // all pinned: stop early
			})
			if len(pinned) == len(cands) {
				return pinned, nil
			}
		}
	}
	return pinned, nil
}

// ---------------------------------------------------------------------------

// AuditStats reports a full mark-and-sweep audit.
type AuditStats struct {
	ContainersMarked int
	ContainersSwept  int
	BytesReclaimed   int64
}

// FullSweep is the classic mark-and-sweep fallback (§II) and the one
// crash-recovery path: it marks every container reachable from any live
// recipe — resolving reverse-dedup and SCC redirects through the global
// index — and deletes the rest (including containers a crash stranded before
// the recipe that would name them, and payloads a crash left without their
// metadata), then the recipes, recipe indexes and sketches of versions with
// no catalog entry (a backup crashed before its commit, a deletion after).
// It is an audit/repair tool; normal operation uses the per-version garbage
// lists.
func (g *GNode) FullSweep() (*AuditStats, error) {
	g.maintMu.Lock()
	defer g.maintMu.Unlock()
	// Stop the world: a container an in-flight backup has uploaded is
	// unreachable until its recipe lands, and the sweep would reclaim it —
	// and so is a payload an in-flight rewrite has not switched to.
	release := g.repo.Files.LockAll()
	defer release()
	g.rewriting.Wait()

	cs := g.containers()
	rs := g.recipes()

	files, err := rs.Files()
	if err != nil {
		return nil, err
	}
	var work []recipe.Ref // every catalogued version
	for _, f := range files {
		versions, err := rs.Versions(f)
		if err != nil {
			return nil, err
		}
		for _, v := range versions {
			work = append(work, recipe.Ref{FileID: f, Version: v})
		}
	}

	// Mark phase, fanned out per version: each worker resolves one recipe's
	// records as a restore resolves them (core.Repo.Resolve, serially within
	// the worker) and marks the containers they resolve to — the home, or
	// where the global index moved the chunk. A lost chunk marks nothing; a
	// meta that does not read fails the sweep, never passing for a container
	// gone. The world is stopped (LockAll above), so the walks are pure
	// reads; the union of the per-version mark sets is order-independent.
	var (
		markMu sync.Mutex
		marked = make(map[container.ID]bool)
	)
	err = g.repo.ForEach(len(work), func(wi int) error {
		r, err := rs.GetRecipe(work[wi].FileID, work[wi].Version)
		if err != nil {
			return err
		}
		var recs []*recipe.ChunkRecord
		r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
			recs = append(recs, rec)
			return true
		})
		res, err := g.repo.Resolve(cs, recs, 1, g.acct, nil)
		if err != nil {
			return fmt.Errorf("gnode: sweep: mark %s v%d: %w", r.FileID, r.Version, err)
		}
		markMu.Lock()
		defer markMu.Unlock()
		for _, q := range res.Seq {
			if q.Container != container.Invalid {
				marked[q.Container] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	all, payloads, err := cs.Scan()
	if err != nil {
		return nil, err
	}
	metas, err := g.readMetas(cs, all)
	if err != nil {
		return nil, err
	}
	named := make(map[container.ID]bool, len(all)) // the payloads live metas name
	for _, m := range metas {
		if m != nil {
			named[m.Payload] = true
		}
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
	// Payloads no live meta names — a crash between a payload put and the
	// meta that would name it, or between a meta's delete or switch and the
	// old payload's delete: no index entry or recipe can reach them.
	orphans := slices.DeleteFunc(payloads, func(id container.ID) bool { return named[id] })
	for _, id := range orphans {
		size, err := cs.DropOrphan(id)
		if err != nil {
			return nil, err
		}
		reclaimed += size
	}
	if err := g.dropUncatalogued(rs, work); err != nil {
		return nil, err
	}
	return &AuditStats{ContainersMarked: len(marked), ContainersSwept: len(unmarked) + len(orphans),
		BytesReclaimed: reclaimed}, nil
}

// dropUncatalogued deletes the recipe, recipe index and sketch of every
// version not in catalogued. A backup puts them before its catalog entry
// and a deletion deletes them after its own, so under the sweep's stopped
// world each is what a crash left.
func (g *GNode) dropUncatalogued(rs *recipe.Store, catalogued []recipe.Ref) error {
	listed := make(map[recipe.Ref]bool, len(catalogued))
	for _, r := range catalogued {
		listed[r] = true
	}
	recipes, err := rs.Stored()
	if err != nil {
		return err
	}
	sketches, err := g.repo.SimIndex.Stored()
	if err != nil {
		return err
	}
	for _, r := range recipes {
		if !listed[r] {
			if err := rs.DeleteRecipe(r.FileID, r.Version); err != nil {
				return err
			}
		}
	}
	for _, e := range sketches {
		if !listed[recipe.Ref{FileID: e.FileID, Version: e.Version}] {
			if err := g.repo.SimIndex.Remove(e.FileID, e.Version); err != nil {
				return err
			}
		}
	}
	return nil
}

// commitRecipe puts a version's repointed recipe between two puts of its
// catalog entry info, so that at every crash point the entry's container
// list names every container the stored recipe names — a deletion's
// liveness check (liveContainerRefs) reads only the lists, and would take a
// container missing from them for garbage. The first put, skipped when the
// old list already covers the new recipe, lists the old containers and the
// new recipe's; the second, beside the caller's step, the new recipe's
// alone. Both add garbage to the garbage list. A crash between the puts
// keeps the extra containers live until the version is deleted, or leaks
// them to FullSweep; it loses nothing. It is the one recipe repoint: SCC's,
// which adds its drained sources as garbage, and scrub's.
func (g *GNode) commitRecipe(rs *recipe.Store, r *recipe.Recipe, info *recipe.VersionInfo, garbage []container.ID, beside func() error) error {
	for _, id := range garbage {
		if !slices.Contains(info.Garbage, id) {
			info.Garbage = append(info.Garbage, id)
		}
	}
	refs := make(map[container.ID]bool)
	r.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
		refs[cr.Container] = true
		return true
	})
	exact := make([]container.ID, 0, len(refs))
	for id := range refs {
		exact = append(exact, id)
	}
	slices.Sort(exact)
	listed := make(map[container.ID]bool, len(info.Containers))
	for _, id := range info.Containers {
		listed[id] = true
	}
	union := slices.Clone(info.Containers)
	for _, id := range exact {
		if !listed[id] {
			union = append(union, id)
		}
	}
	if len(union) > len(info.Containers) {
		slices.Sort(union)
		info.Containers = union
		if err := rs.PutInfo(info); err != nil {
			return err
		}
	}
	if _, err := rs.PutRecipe(r); err != nil {
		return err
	}
	info.Containers = exact
	return g.wave(func() error { return rs.PutInfo(info) }, beside)
}

// wave runs independent steps side by side across the maintenance pool —
// one after another at width ≤ 1 — and returns the first error.
func (g *GNode) wave(steps ...func() error) error {
	return g.repo.ForEach(len(steps), func(i int) error { return steps[i]() })
}
