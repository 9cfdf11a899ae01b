package core

import (
	"errors"
	"fmt"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/oss"
	"slimstore/internal/pipe"
)

// This file holds the multi-object steps the G-node's passes share: a
// container rewrite, which switches to a payload written beside the old
// one, and a drop, which syncs its index deletes before any object goes.
// Each orders its puts so that a crash leaves only objects nothing names,
// which FullSweep reclaims (DESIGN.md §6).

// RewriteContainer physically removes deleted chunks from a container,
// keeping its ID (recipes referencing surviving chunks stay valid): Rebuild
// from the marks of m, then Switch. Returns bytes freed.
func (r *Repo) RewriteContainer(cs *container.Store, m *container.Meta, held *container.Container, payload container.ID) (int64, error) {
	nm, freed, err := r.Rebuild(cs, m, held, payload)
	if err == nil {
		err = r.Switch(cs, nm, m.Payload)
	}
	return freed, err
}

// Rebuild is a rewrite's first half: it puts the live chunks of m, compacted,
// under payload, a fresh ID no meta names yet, and returns the meta for
// Switch and the bytes freed. held, when non-nil, is what the caller fetched
// of the container with a verified read — whole, in pieces, or ranges; it
// stands in for a fetch only while it covers the payload m describes
// (heldCovers), else the container is read afresh, whole.
func (r *Repo) Rebuild(cs *container.Store, m *container.Meta, held *container.Container, payload container.ID) (*container.Meta, int64, error) {
	c := held
	if c == nil || !heldCovers(&c.Meta, m) {
		var err error
		if c, err = cs.Read(m.ID); err != nil {
			return nil, 0, fmt.Errorf("core: rewrite %s: %w", m.ID, err)
		}
	}
	// Room for the footer: WritePayload appends it in place, so the rewrite
	// copies the payload once, here.
	nc := &container.Container{Meta: container.Meta{ID: m.ID, Payload: payload}, Data: make([]byte, 0, m.LiveBytes()+container.FooterSize)}
	for i := range m.Chunks {
		cm := &m.Chunks[i]
		if cm.Deleted {
			continue
		}
		data, err := c.ChunkData(cm)
		if err != nil {
			return nil, 0, fmt.Errorf("core: rewrite: %w", err)
		}
		nc.Meta.Chunks = append(nc.Meta.Chunks, container.ChunkMeta{
			FP:     cm.FP,
			Offset: uint32(len(nc.Data)),
			Size:   cm.Size,
		})
		nc.Data = append(nc.Data, data...)
	}
	if err := cs.WritePayload(nc); err != nil {
		return nil, 0, err
	}
	nm := nc.Meta // not &nc.Meta, which would keep the payload resident
	return &nm, int64(c.Meta.DataSize) - int64(len(nc.Data)), nil
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

// Switch is a rewrite's second half: under the container's write lock
// (restores of the old layout finish first) nm, which names a payload put
// beside was, replaces the meta if that still names was, carrying its marks
// (a fingerprint it holds nowhere live is marked); else nm's payload is
// deleted and an error wrapping oss.ErrNotFound returned. was goes last.
func (r *Repo) Switch(cs *container.Store, nm *container.Meta, was container.ID) error {
	r.CLocks.Lock(nm.ID)
	var old container.Meta // the meta switched from, which names was's parts
	cur, err := cs.UpdateMeta(nm.ID, func(cur *container.Meta) *container.Meta {
		if cur.Payload != was {
			return nil
		}
		old = *cur
		live := make(map[fingerprint.FP]bool, len(cur.Chunks))
		for _, cm := range cur.Chunks {
			live[cm.FP] = live[cm.FP] || !cm.Deleted
		}
		for i := range nm.Chunks {
			nm.Chunks[i].Deleted = !live[nm.Chunks[i].FP]
		}
		return nm
	})
	if cur == nm {
		r.BumpMaintEpoch()
	}
	r.CLocks.Unlock(nm.ID)
	switch {
	case err != nil && !errors.Is(err, oss.ErrNotFound):
		return err
	case cur != nm:
		return errors.Join(fmt.Errorf("core: rewrite %s: switched meanwhile: %w", nm.ID, oss.ErrNotFound), cs.DeletePayload(nm))
	}
	return cs.DeletePayload(&old)
}

// ReadMetas reads the metas of ids in one fan-out, width wide (pipe.FanOut:
// ≤ 1 is the serial loop); metas[i] is nil when the meta of ids[i] is not
// found — the container is gone. Any other failure is returned: no delete,
// redirect or quarantine may follow from a read that failed. It is the one
// reader of a set of metas (DESIGN.md §6).
func (r *Repo) ReadMetas(cs *container.Store, ids []container.ID, width int) ([]*container.Meta, error) {
	metas := make([]*container.Meta, len(ids))
	return metas, pipe.FanOut(len(ids), width, func(i int) (err error) {
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
	metas, err := r.ReadMetas(cs, ids, r.Config.MaintWorkers)
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
