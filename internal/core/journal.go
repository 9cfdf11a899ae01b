package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/journal"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// This file holds the apply half of the intent-journal protocol (see
// package journal). The G-node commits a record and calls the matching
// Apply*; OpenRepo replays surviving records through the same functions,
// so every step here must be idempotent. Every index mutation here is
// synced before the step that depends on it — ApplySCC ends with a Sync,
// ApplyGC's drop syncs before it deletes an object — since the index buffers
// writes, and removing a journal record (or a container) before the index
// mutations are durable would lose them to a crash.

// ReplayJournal rolls forward every surviving journal record, in commit
// order, and returns the number replayed. OpenRepo does the same, from the
// listing that opened the journal, before the repo does any new work;
// FullSweep calls it to reclaim half-committed operations from a crashed
// peer.
func (r *Repo) ReplayJournal() (int, error) {
	keys, err := r.Journal.List()
	if err != nil {
		return 0, err
	}
	return r.replay(keys)
}

// replay is ReplayJournal over the given record keys.
func (r *Repo) replay(keys []string) (int, error) {
	n := 0
	for _, k := range keys {
		rec, err := r.Journal.Get(k)
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) {
				continue // a concurrent replayer got there first
			}
			return n, err
		}
		switch rec.Kind {
		case journal.KindSCC:
			err = r.ApplySCC(rec, nil, nil, nil)
		case journal.KindGC:
			_, err = r.ApplyGC(rec, nil, nil)
		default:
			return n, fmt.Errorf("core: journal record %d has unknown kind %q", rec.Seq, rec.Kind)
		}
		if err != nil {
			return n, fmt.Errorf("core: replay journal record %d (%s): %w", rec.Seq, rec.Kind, err)
		}
		if err := r.Journal.Remove(k); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// ApplySCC performs the committed half of a sparse-container compaction:
// the moved chunks already live in their new containers; this repoints
// the global index, rewrites the version's recipe and catalog entry, and
// marks the moved chunks deleted in the drained sources. Safe to re-run,
// and deterministic: index puts go out as one fingerprint-sorted batch, so
// the first apply and a replay of the same record write the same WAL
// bytes. cs and rs direct the I/O (metered views); nil selects the repo's
// unmetered stores (the replay path). rcp is the version's recipe when the
// caller already holds it (the live path, under the file lock); nil
// fetches it (replay).
func (r *Repo) ApplySCC(rec *journal.Record, cs *container.Store, rs *recipe.Store, rcp *recipe.Recipe) error {
	if cs == nil {
		cs = r.Containers
	}
	if rs == nil {
		rs = r.Recipes
	}
	moved, err := rec.MovedFPs()
	if err != nil {
		return err
	}
	batch := make([]globalindex.Entry, 0, len(moved))
	for fp, nid := range moved {
		batch = append(batch, globalindex.Entry{FP: fp, ID: nid})
	}
	sort.Slice(batch, func(a, b int) bool { return bytes.Compare(batch[a].FP[:], batch[b].FP[:]) < 0 })

	// Index first: restores redirect relocated chunks through it, so no
	// window may exist where a redirect would miss.
	if err := r.Global.PutBatch(batch); err != nil {
		return err
	}

	// Recipe: this version's restores stop touching the sparse sources.
	// A missing recipe means the version was deleted after the commit;
	// the remaining steps still apply.
	if rcp == nil {
		rcp, err = rs.GetRecipe(rec.FileID, rec.Version)
		if err != nil && !errors.Is(err, oss.ErrNotFound) {
			return err
		}
	}
	if rcp != nil {
		rcp.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
			if nid, ok := moved[cr.FP]; ok {
				cr.Container = nid
			}
			return true
		})
		if _, err := rs.PutRecipe(rcp); err != nil {
			return err
		}

		// Catalog: refresh the container list and associate the drained
		// sources with this version as garbage (§VI-B).
		info, err := rs.GetInfo(rec.FileID, rec.Version)
		if err != nil && !errors.Is(err, oss.ErrNotFound) {
			return err
		}
		if err == nil {
			refs := make(map[container.ID]bool)
			rcp.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
				refs[cr.Container] = true
				return true
			})
			info.Containers = info.Containers[:0]
			for id := range refs {
				info.Containers = append(info.Containers, id)
			}
			sort.Slice(info.Containers, func(a, b int) bool { return info.Containers[a] < info.Containers[b] })
			garbage := make(map[container.ID]bool, len(info.Garbage))
			for _, id := range info.Garbage {
				garbage[id] = true
			}
			for _, id := range journal.IDs(rec.Sparse) {
				if !garbage[id] {
					info.Garbage = append(info.Garbage, id)
				}
			}
			if err := rs.PutInfo(info); err != nil {
				return err
			}
		}
	}

	// Mark the moved chunks deleted in the sources, now that nothing
	// routes reads to them (the index and recipe point at the copies).
	// Distinct containers, no ordering dependency: fanned out.
	sources := journal.IDs(rec.Sparse)
	if err := r.ForEach(len(sources), func(i int) error {
		m, err := cs.ReadMeta(sources[i])
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) {
				return nil // already swept
			}
			return err
		}
		cp := *m
		cp.Chunks = append([]container.ChunkMeta(nil), m.Chunks...)
		dirty := false
		for j := range batch {
			if cm := cp.Find(batch[j].FP); cm != nil && !cm.Deleted {
				cm.Deleted = true
				dirty = true
			}
		}
		if !dirty {
			return nil
		}
		return cs.WriteMeta(&cp)
	}); err != nil {
		return err
	}
	r.BumpMaintEpoch()
	return r.Global.Sync()
}

// GCApply reports what a version-deletion apply actually swept.
type GCApply struct {
	ContainersCollected int
	BytesReclaimed      int64
	IndexEntriesRemoved int
}

// ApplyGC performs the committed half of a version deletion: removes the
// version's recipe, catalog entry and similarity sketch, then sweeps the
// journaled garbage containers that no surviving version references.
// Safe to re-run — deletes tolerate already-deleted state. cs and rs
// direct the I/O (metered views); nil selects the repo's unmetered
// stores (the replay path).
func (r *Repo) ApplyGC(rec *journal.Record, cs *container.Store, rs *recipe.Store) (*GCApply, error) {
	if cs == nil {
		cs = r.Containers
	}
	if rs == nil {
		rs = r.Recipes
	}
	out := &GCApply{}
	if err := rs.DeleteRecipe(rec.FileID, rec.Version); err != nil {
		return nil, err
	}
	if err := rs.DeleteInfo(rec.FileID, rec.Version); err != nil {
		return nil, err
	}
	if err := r.SimIndex.Remove(rec.FileID, rec.Version); err != nil {
		return nil, err
	}
	if len(rec.Garbage) > 0 {
		live, err := r.LiveContainerRefs(rs)
		if err != nil {
			return nil, err
		}
		var cands []container.ID
		for _, id := range journal.IDs(rec.Garbage) {
			if !live[id] {
				cands = append(cands, id)
			}
		}
		pinned, err := r.redirectPins(cs, rs, cands)
		if err != nil {
			return nil, err
		}
		var drop []container.ID
		for _, id := range cands {
			if !pinned[id] { // a pinned one is still referenced (e.g. out-of-order deletion)
				drop = append(drop, id)
			}
		}
		out.ContainersCollected = len(drop)
		if out.BytesReclaimed, out.IndexEntriesRemoved, err = r.DropContainers(cs, drop); err != nil {
			return nil, err
		}
	}
	return out, nil
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
func (r *Repo) redirectPins(cs *container.Store, rs *recipe.Store, cands []container.ID) (map[container.ID]bool, error) {
	// Fingerprints whose canonical copy sits in a candidate: one probe over
	// the live chunks of every candidate still there (the drop skips one
	// whose meta is gone).
	metas, err := r.ReadMetas(cs, cands)
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
	cur, found, _, err := r.Global.GetBatch(fps)
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
				if errors.Is(err, oss.ErrNotFound) {
					continue // catalog entry without a recipe: nothing to pin
				}
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

// RewriteContainer physically removes deleted chunks from a container,
// keeping its ID (recipes referencing surviving chunks stay valid): the
// compacted payload goes under payload, a fresh ID (AllocateID), and
// WriteRebuilt switches the container to it. m supplies the freshest
// deletion marks; cs directs the I/O (typically a metered view). Returns
// bytes freed.
//
// held, when non-nil, is what the caller already fetched of the container
// with a verified read — whole, in pieces, or only the ranges of the chunks
// it wanted (the G-node's planned reads). It stands in for a second fetch
// only while it covers the payload m describes (heldCovers). Otherwise, and
// with held nil, the container is read afresh, whole.
func (r *Repo) RewriteContainer(cs *container.Store, m *container.Meta, held *container.Container, payload container.ID) (int64, error) {
	c := held
	if c == nil || !heldCovers(&c.Meta, m) {
		var err error
		if c, err = cs.Read(m.ID); err != nil {
			return 0, fmt.Errorf("core: rewrite %s: %w", m.ID, err)
		}
	}
	nc := &container.Container{Meta: container.Meta{ID: m.ID, Payload: payload}, Data: make([]byte, 0, m.LiveBytes())}
	for i := range m.Chunks {
		cm := &m.Chunks[i]
		if cm.Deleted {
			continue
		}
		data, err := c.ChunkData(cm)
		if err != nil {
			return 0, fmt.Errorf("core: rewrite: %w", err)
		}
		nc.Meta.Chunks = append(nc.Meta.Chunks, container.ChunkMeta{
			FP:     cm.FP,
			Offset: uint32(len(nc.Data)),
			Size:   cm.Size,
		})
		nc.Data = append(nc.Data, data...)
	}
	if err := r.WriteRebuilt(cs, nc, m.Payload); err != nil {
		return 0, err
	}
	return int64(c.Meta.DataSize) - int64(len(nc.Data)), nil
}

// heldCovers is the held-payload validity rule of RewriteContainer: held
// was read from the payload m names — a payload is written once, so no
// rewrite landed in between — and every chunk record m keeps is one the
// held read listed live, so fetched and verified. held may list fewer
// chunks than m (a ranged read lists what it fetched); records, not
// fingerprints, are matched because a container may hold one fingerprint
// twice.
func heldCovers(held, m *container.Meta) bool {
	if held.Payload != m.Payload {
		return false
	}
	verified := make(map[container.ChunkMeta]bool, len(held.Chunks))
	for _, h := range held.Chunks {
		if !h.Deleted {
			verified[h] = true
		}
	}
	for _, cm := range m.Chunks {
		if !cm.Deleted && !verified[cm] {
			return false
		}
	}
	return true
}

// WriteRebuilt switches a container to a rebuilt payload written beside the
// one it replaces, was: the payload goes under nc.Meta.Payload, a fresh ID;
// the meta naming it replaces the old under the container's write lock
// (restores that resolved the old layout finish first) — only if the meta
// still names was, else this payload is deleted instead — and the old
// payload is deleted last. A crash leaves at most a payload no meta names.
func (r *Repo) WriteRebuilt(cs *container.Store, nc *container.Container, was container.ID) error {
	if err := cs.WritePayload(nc); err != nil {
		return err
	}
	id := nc.Meta.ID
	r.CLocks.Lock(id)
	cur, err := cs.ReadMeta(id)
	switched := err == nil && cur.Payload == was
	if switched {
		err = cs.WriteMeta(&nc.Meta)
		r.BumpMaintEpoch()
	}
	r.CLocks.Unlock(id)
	switch {
	case err != nil:
		return err
	case !switched:
		return errors.Join(fmt.Errorf("core: rewrite %s: switched to payload %s meanwhile: %w", id, cur.Payload, oss.ErrNotFound),
			cs.DeletePayload(nc.Meta.Payload))
	}
	return cs.DeletePayload(was)
}

// LiveContainerRefs scans the catalog for every container referenced by a
// live version.
func (r *Repo) LiveContainerRefs(rs *recipe.Store) (map[container.ID]bool, error) {
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

// ReadMetas reads the metas of ids in one fan-out; metas[i] is nil when the
// meta of ids[i] is not found — the container is gone. Any other failure is
// returned: no delete may follow from a read that failed.
func (r *Repo) ReadMetas(cs *container.Store, ids []container.ID) ([]*container.Meta, error) {
	metas := make([]*container.Meta, len(ids))
	return metas, r.ForEach(len(ids), func(i int) (err error) {
		if metas[i], err = cs.ReadMeta(ids[i]); errors.Is(err, oss.ErrNotFound) {
			return nil
		}
		return err
	})
}

// DropContainers deletes a set of containers and the global-index entries
// that still name one of them, returning the bytes reclaimed and the
// entries removed. The metas are read in one fan-out — a container whose
// meta is not found is already gone (swept through another version's
// garbage list, say) and is skipped — then one lookup covers their distinct
// fingerprints and one batch deletes the entries naming a container of the
// set. That batch is synced before any object goes: a crash can leave
// objects no entry names, which the next drop or sweep removes, never an
// entry naming a container that no longer exists. A fingerprint a
// container holds twice is one entry, removed once.
func (r *Repo) DropContainers(cs *container.Store, ids []container.ID) (int64, int, error) {
	if len(ids) == 0 {
		return 0, 0, nil
	}
	metas, err := r.ReadMetas(cs, ids)
	if err != nil {
		return 0, 0, err
	}
	var reclaimed int64
	var fps []fingerprint.FP
	dropping := make(map[container.ID]bool, len(ids))
	seen := make(map[fingerprint.FP]bool)
	for i, m := range metas {
		if m == nil {
			continue
		}
		dropping[ids[i]] = true
		reclaimed += int64(m.DataSize) + int64(len(container.EncodeMeta(m)))
		for j := range m.Chunks {
			if fp := m.Chunks[j].FP; !seen[fp] {
				seen[fp] = true
				fps = append(fps, fp)
			}
		}
	}
	cur, found, _, err := r.Global.GetBatch(fps)
	if err != nil {
		return 0, 0, err
	}
	var dels []globalindex.Entry
	for i, fp := range fps {
		if found[i] && dropping[cur[i]] {
			dels = append(dels, globalindex.Entry{FP: fp, ID: container.Invalid})
		}
	}
	if err := r.Global.PutBatch(dels); err != nil {
		return 0, 0, err
	}
	if err := r.Global.Sync(); err != nil {
		return 0, 0, err
	}
	if err := r.ForEach(len(ids), func(i int) error {
		if metas[i] == nil {
			return nil
		}
		r.CLocks.Lock(ids[i])
		defer r.CLocks.Unlock(ids[i])
		return cs.Delete(ids[i])
	}); err != nil {
		return 0, 0, err
	}
	r.BumpMaintEpoch()
	return reclaimed, len(dels), nil
}
