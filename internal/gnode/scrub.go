package gnode

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"slimstore/internal/container"
	"slimstore/internal/ec"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// ScrubStats reports one integrity scrub of the container namespace.
type ScrubStats struct {
	ContainersScanned int
	ChunksVerified    int
	CorruptChunks     int // live chunks failing their checksum
	RepairedChunks    int // corrupt chunks restored from intact copies
	RebuiltContainers int // containers switched to a rebuilt payload (repair or rot cleanup)
	FooterRepairs     int // dead-region rot cleared by rebuilding
	RecipesRewritten  int // recipes repointed away from quarantined containers
	IndexRepointed    int // global-index entries moved to surviving copies
	IndexPurged       int // global-index entries for unrecoverable chunks

	// Redundancy-tier counters (zero when the EC tier is off). The EC
	// pass runs before chunk verification: every payload part's stripe
	// is checked across all K+M backends and degraded-but-recoverable
	// stripes are rebuilt to full redundancy.
	ECStripesChecked  int // striped payload parts checked across all backends
	ECDegradedStripes int // stripes missing at least one healthy shard
	ECRepairedShards  int // shards reconstructed and rewritten
	ECRepairFailures  int // stripes whose rewrite failed (backend still down)
	ECUnrecoverable   int // stripes below K shards (left to quarantine/salvage)

	// Quarantined lists containers moved out of the live namespace:
	// damaged metadata, a damaged or missing payload, or live corruption
	// with no donor for every damaged chunk.
	Quarantined []container.ID
	// Lost lists fingerprints with no intact copy anywhere. Restores
	// needing them fail loudly; everything else remains restorable.
	Lost []fingerprint.FP
}

// Clean reports whether the scrub left the repo fully intact: nothing
// quarantined, nothing lost.
func (s *ScrubStats) Clean() bool { return len(s.Quarantined) == 0 && len(s.Lost) == 0 }

// Scrub verifies every container against its checksums and repairs what
// it can (paper-level goal: detect silent OSS corruption before a restore
// needs the bytes). Per container:
//
//   - live chunks all verify, footer stale → dead-region rot; the
//     container is rebuilt, dropping the rotten dead bytes.
//   - some live chunks corrupt, every one has an intact copy (same
//     fingerprint) in another container → rebuilt with donor bytes.
//   - otherwise → intact chunks are salvaged into fresh containers and
//     the damaged container is quarantined; chunks with no intact copy
//     anywhere are reported Lost.
//
// Afterwards the global index is repointed at surviving copies (entries
// for lost chunks are purged so restores fail loudly instead of chasing
// dangling references) and recipes referencing quarantined containers are
// rewritten — all before the damaged containers leave the namespace, so
// that no crash leaves an index entry or recipe naming a container no
// later scrub lists. Scrub is re-runnable: a crash mid-scrub leaves state
// a subsequent Scrub (or FullSweep) finishes cleaning; a rebuild is a new
// payload beside the old and one meta put (core.Repo.Switch).
//
// The expensive part — reading and checksumming every payload — fans out
// across the maintenance worker pool OUTSIDE maintMu at a sampled
// maintenance epoch; the repair step then takes the lock, validates the
// epoch, and applies the verdicts serially in container-ID order, so any
// worker width produces identical repairs, stats, and final state
// (DESIGN.md §8).
func (g *GNode) Scrub() (*ScrubStats, error) {
	// Redundancy-tier repair first: rebuilding degraded stripes to full
	// K+M redundancy lets the chunk-level verification below read through
	// clean stripes instead of paying degraded reconstructions, and
	// restores full fault tolerance before anything else runs.
	ecStats, err := g.ecRepair()
	if err != nil {
		return nil, fmt.Errorf("gnode: scrub: %w", err)
	}

	stats, err := optimistic(g, "scrub", 2, g.scrubVerify, g.scrubRepair)
	if err != nil {
		return nil, err
	}
	stats.ECStripesChecked = ecStats.checked
	stats.ECDegradedStripes = ecStats.degraded
	stats.ECRepairedShards = ecStats.repairedShards
	stats.ECRepairFailures = ecStats.repairFailed
	stats.ECUnrecoverable = ecStats.unrecoverable
	return stats, nil
}

// ecRepairStats aggregates the redundancy-tier pass.
type ecRepairStats struct {
	checked, degraded, repairedShards, repairFailed, unrecoverable int
}

// ecRepair is the redundancy-tier pass of Scrub (DESIGN.md §12): every part
// of every container's payload, a stripe each, is checked across all K+M
// backends, and degraded but recoverable stripes are rebuilt to full
// redundancy. Each repair runs under the container's stripe write lock
// (waiting out restores that pinned it) and rewrites only missing, rotted,
// or foreign shards with byte-identical reconstructions — no logical
// change, so no maintenance-epoch bump is needed, and a crash mid-repair
// simply leaves fewer shards for the next scrub to rewrite. Stripes below
// K healthy shards are counted unrecoverable and left to the chunk-level
// quarantine/salvage machinery, as a meta that does not read is.
func (g *GNode) ecRepair() (*ecRepairStats, error) {
	st := &ecRepairStats{}
	ecs := g.repo.ECFor(g.acct)
	if ecs == nil {
		return st, nil
	}
	cs := g.containers()
	ids, err := cs.List()
	if err != nil {
		return nil, fmt.Errorf("ec repair: %w", err)
	}
	var mu sync.Mutex
	err = g.repo.ForEach(len(ids), func(i int) error {
		id := ids[i]
		m, err := cs.ReadMeta(id)
		switch {
		case damage(err):
			return nil // swept since the listing, or for the verification pass to judge
		case err != nil:
			return fmt.Errorf("ec repair: meta %s: %w", id, err)
		}
		for _, key := range m.DataKeys() { // each part is a stripe of its own
			h, err := ecs.Check(key)
			if errors.Is(err, oss.ErrNotFound) {
				continue // swept or rewritten since the meta was read
			} else if err != nil {
				return fmt.Errorf("ec check %s: %w", key, err)
			}
			n, rerr := 0, error(nil)
			if len(h.Bad) > 0 && h.Recoverable {
				g.repo.CLocks.Lock(id)
				n, rerr = ecs.Repair(key)
				g.repo.CLocks.Unlock(id)
			}
			mu.Lock()
			st.checked++
			if len(h.Bad) > 0 {
				st.degraded++
				st.repairedShards += n
				switch {
				case !h.Recoverable:
					st.unrecoverable++
				case rerr != nil:
					// Rewrite failed (backend still down): the stripe stays
					// degraded for the next scrub — not fatal.
					st.repairFailed++
				}
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// damage reports whether a failed read failed on the object itself: a
// payload a live meta names that is not found, an object that does not
// decode or fails a checksum, a stripe short of K shards that hold it.
// Damage is quarantined and salvaged; any other failure — a read that
// failed on the way, a stripe those kept short (ec.ErrUnavailable) — fails
// the scrub, which can be re-run (DESIGN.md §6).
func damage(err error) bool {
	return !errors.Is(err, ec.ErrUnavailable) &&
		(errors.Is(err, oss.ErrNotFound) || errors.Is(err, container.ErrCorrupt) || errors.Is(err, ec.ErrInsufficient))
}

// scrubVerdict is one container's verification result.
type scrubVerdict struct {
	// meta is nil for a container gone since the listing (its meta not
	// found), which the scrub skips, or — damaged — one whose meta is.
	meta *container.Meta
	// rawMeta is the payload's own metadata copy (what repairs rebuild
	// from); the payload itself is released unless repair needs it.
	rawMeta  *container.Meta
	c        *container.Container // retained only when chunks need repairing
	footerOK bool
	damaged  bool // the meta, or the payload it names, is damaged
	live     int  // live chunks checksummed
	corrupt  []int
}

// scrubView is the read-only output of the parallel verification pass.
type scrubView struct {
	ids      []container.ID
	verdicts []scrubVerdict
	// owners (fingerprint → containers holding a live copy, in container
	// order) drives donor and surviving-owner lookups without rescanning
	// the namespace.
	owners map[fingerprint.FP][]container.ID
}

// scrubVerify reads and checksums every container across the worker
// pool. Each worker writes only its own verdict slot; the owners map is
// assembled afterwards in deterministic container order.
func (g *GNode) scrubVerify() (*scrubView, error) {
	cs := g.containers()
	ids, err := cs.List()
	if err != nil {
		return nil, err
	}
	sv := &scrubView{ids: ids, verdicts: make([]scrubVerdict, len(ids))}
	err = g.repo.ForEach(len(ids), func(i int) error {
		v := &sv.verdicts[i]
		m, err := cs.ReadMeta(ids[i])
		switch {
		case errors.Is(err, oss.ErrNotFound): // gone since the listing
			return nil
		case err != nil:
			if v.damaged = damage(err); v.damaged {
				return nil
			}
			return err
		}
		v.meta = m
		c, footerOK, err := cs.ReadRaw(ids[i])
		if err != nil {
			if v.damaged = damage(err); v.damaged {
				return nil
			}
			return err
		}
		v.footerOK = footerOK
		for j := range c.Meta.Chunks {
			cm := &c.Meta.Chunks[j]
			if cm.Deleted {
				continue
			}
			v.live++
			if c.VerifyChunk(cm) != nil {
				v.corrupt = append(v.corrupt, j)
			}
		}
		if len(v.corrupt) > 0 {
			v.c = c // the repair step needs the payload
		} else {
			// Keep only the metadata (rot cleanup rebuilds from it);
			// the payload — the bulk of the memory — is dropped here.
			cp := c.Meta
			v.rawMeta = &cp
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sv.owners = make(map[fingerprint.FP][]container.ID)
	for i := range sv.verdicts {
		m := sv.verdicts[i].meta
		if m == nil {
			continue
		}
		for j := range m.Chunks {
			if cm := &m.Chunks[j]; !cm.Deleted {
				sv.owners[cm.FP] = append(sv.owners[cm.FP], sv.ids[i])
			}
		}
	}
	return sv, nil
}

// scrubRepair applies the verdicts under maintMu, in container-ID order:
// it decides the quarantine set while making donor repairs and salvages,
// then fixes the index and recipes, syncs the index, and only then
// quarantines. Only the independent rot-cleanup rewrites fan back out to
// the pool.
func (g *GNode) scrubRepair(sv *scrubView) (*ScrubStats, error) {
	stats := &ScrubStats{}
	cs := g.containers()

	bad := make(map[container.ID]bool) // the containers whose meta is damaged
	for i := range sv.verdicts {
		if v := &sv.verdicts[i]; v.meta == nil && v.damaged {
			bad[sv.ids[i]] = true
		}
	}

	quarantined := make(map[container.ID]bool)
	moved := make(map[fingerprint.FP]container.ID) // salvaged/repaired relocations
	lost := make(map[fingerprint.FP]bool)
	builder := container.NewBuilder(cs)

	// quarantine decides; the container leaves the namespace only once the
	// index and recipes no longer name it (see the end of this function).
	quarantine := func(id container.ID) {
		quarantined[id] = true
		stats.Quarantined = append(stats.Quarantined, id)
	}

	// donor returns verified bytes for fp from any intact container other
	// than exclude: nil when none holds them, an error when a read failed
	// other than on damage.
	donor := func(fp fingerprint.FP, exclude container.ID) ([]byte, error) {
		for _, oid := range sv.owners[fp] {
			if oid == exclude || bad[oid] || quarantined[oid] {
				continue
			}
			data, err := cs.ReadChunk(oid, fp)
			if err == nil || !damage(err) {
				return data, err
			}
		}
		return nil, nil
	}

	var rotOnly []int // verdict indices needing a dead-region rot rebuild
	for i, id := range sv.ids {
		v := &sv.verdicts[i]
		if v.meta == nil && !v.damaged {
			continue // gone since the listing
		}
		stats.ContainersScanned++
		if v.damaged {
			// A payload that does not read takes the live chunks its meta
			// lists with it, unless a copy survives elsewhere (checked
			// below); a meta that does not read, those recipes name.
			if v.meta != nil {
				for j := range v.meta.Chunks {
					if cm := &v.meta.Chunks[j]; !cm.Deleted {
						lost[cm.FP] = true
					}
				}
			}
			quarantine(id)
			continue
		}
		stats.ChunksVerified += v.live

		if len(v.corrupt) == 0 {
			if !v.footerOK {
				rotOnly = append(rotOnly, i)
			}
			continue
		}
		stats.CorruptChunks += len(v.corrupt)

		c := v.c
		corrupt := make([]*container.ChunkMeta, len(v.corrupt))
		corruptSet := make(map[int]bool, len(v.corrupt))
		for k, j := range v.corrupt {
			corrupt[k] = &c.Meta.Chunks[j]
			corruptSet[j] = true
		}

		repaired := make(map[fingerprint.FP][]byte, len(corrupt))
		for _, cm := range corrupt {
			data, err := donor(cm.FP, id)
			if err != nil {
				return nil, fmt.Errorf("gnode: scrub repair %s: %w", id, err)
			}
			if data != nil {
				repaired[cm.FP] = data
			}
		}

		if len(repaired) == len(corrupt) {
			// Full repair: rebuild from local intact bytes plus donor copies,
			// beside the damaged payload; recipes and the index stay valid
			// as-is.
			nc := &container.Container{Meta: container.Meta{ID: id, Payload: cs.AllocateID()}, Data: make([]byte, 0, c.Meta.LiveBytes()+container.FooterSize)}
			for j := range c.Meta.Chunks {
				cm := &c.Meta.Chunks[j]
				if cm.Deleted {
					continue
				}
				data, ok := repaired[cm.FP]
				if !ok {
					var err error
					if data, err = c.ChunkData(cm); err != nil {
						return nil, err
					}
				}
				nc.Meta.Chunks = append(nc.Meta.Chunks, container.ChunkMeta{
					FP:     cm.FP,
					Offset: uint32(len(nc.Data)),
					Size:   uint32(len(data)),
				})
				nc.Data = append(nc.Data, data...)
			}
			err := cs.WritePayload(nc)
			if err == nil {
				err = g.repo.Switch(cs, &nc.Meta, c.Meta.Payload)
			}
			if err != nil {
				return nil, fmt.Errorf("gnode: scrub repair %s: %w", id, err)
			}
			stats.RepairedChunks += len(repaired)
			stats.RebuiltContainers++
			continue
		}

		// Partial damage with missing donors: salvage what verifies into
		// fresh containers, quarantine the rest.
		for j := range c.Meta.Chunks {
			cm := &c.Meta.Chunks[j]
			if cm.Deleted {
				continue
			}
			data, ok := repaired[cm.FP]
			if ok {
				stats.RepairedChunks++
			} else {
				if corruptSet[j] {
					lost[cm.FP] = true
					continue
				}
				var err error
				if data, err = c.ChunkData(cm); err != nil {
					return nil, err
				}
			}
			nid, err := builder.Add(cm.FP, data)
			if err != nil {
				return nil, err
			}
			moved[cm.FP] = nid
		}
		quarantine(id)
	}
	if err := builder.Flush(); err != nil {
		return nil, err
	}

	// Dead-region rot cleanup: each rebuild switches one container under
	// its own stripe lock — independent work, fanned out across the pool.
	first := cs.AllocateIDs(len(rotOnly))
	if err := g.repo.ForEach(len(rotOnly), func(k int) error {
		v := &sv.verdicts[rotOnly[k]]
		if _, err := g.repo.RewriteContainer(cs, v.rawMeta, nil, first+container.ID(k)); err != nil {
			return fmt.Errorf("gnode: scrub rot cleanup %s: %w", v.rawMeta.ID, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	stats.FooterRepairs += len(rotOnly)
	stats.RebuiltContainers += len(rotOnly)

	// A fingerprint is only lost if no intact copy survived anywhere.
	for fp := range lost {
		if _, ok := moved[fp]; ok {
			delete(lost, fp)
			continue
		}
		data, err := donor(fp, container.Invalid)
		if err != nil {
			return nil, fmt.Errorf("gnode: scrub: %w", err)
		}
		if data != nil {
			delete(lost, fp)
		}
	}

	if len(quarantined) > 0 {
		if err := g.scrubFixIndex(stats, sv, bad, quarantined, moved, lost); err != nil {
			return nil, err
		}
		if err := g.scrubFixRecipes(stats, sv, bad, quarantined, moved, lost); err != nil {
			return nil, err
		}
	}
	for fp := range lost {
		stats.Lost = append(stats.Lost, fp)
	}
	sort.Slice(stats.Lost, func(a, b int) bool { return stats.Lost[a].String() < stats.Lost[b].String() })
	sort.Slice(stats.Quarantined, func(a, b int) bool { return stats.Quarantined[a] < stats.Quarantined[b] })
	if err := g.repo.Global.Sync(); err != nil {
		return nil, err
	}
	// Only now, with nothing durable naming them, do the containers go: a
	// crash before this point leaves them listed for the next scrub to
	// decide again. The write side waits out restores that pinned one
	// before its damage was known.
	for _, id := range stats.Quarantined {
		g.repo.CLocks.Lock(id)
		err := cs.Quarantine(id)
		g.repo.CLocks.Unlock(id)
		if err != nil {
			return nil, fmt.Errorf("gnode: scrub: %w", err)
		}
	}
	if stats.RebuiltContainers > 0 || len(stats.Quarantined) > 0 || len(moved) > 0 ||
		stats.IndexRepointed > 0 || stats.IndexPurged > 0 || stats.RecipesRewritten > 0 {
		g.repo.BumpMaintEpoch()
	}
	return stats, nil
}

// scrubFixIndex repoints global-index entries that reference quarantined
// containers at surviving copies, and purges entries for lost chunks so
// restore redirects fail loudly instead of dangling: repoints and purges
// (entries naming container.Invalid) in one group-committed batch.
func (g *GNode) scrubFixIndex(stats *ScrubStats, sv *scrubView, bad, quarantined map[container.ID]bool,
	moved map[fingerprint.FP]container.ID, lost map[fingerprint.FP]bool) error {

	var fixes []globalindex.Entry
	purged := 0
	var ownerErr error
	err := g.repo.Global.Scan(func(fp fingerprint.FP, id container.ID) bool {
		if !quarantined[id] {
			return true
		}
		nid, ok := moved[fp]
		if !ok {
			if nid, ownerErr = g.intactOwner(fp, sv, bad, quarantined); ownerErr != nil {
				return false
			}
		}
		if nid == container.Invalid { // the entry goes
			lost[fp] = true
			purged++
		}
		fixes = append(fixes, globalindex.Entry{FP: fp, ID: nid})
		return true
	})
	if err = errors.Join(err, ownerErr); err != nil {
		return err
	}
	if err := g.repo.Global.PutBatch(fixes); err != nil {
		return err
	}
	stats.IndexRepointed += len(fixes) - purged
	stats.IndexPurged += purged
	return nil
}

// intactOwner finds a non-quarantined container holding a live, verified
// copy of fp, consulting the owners map the verification pass built
// instead of rescanning the namespace: container.Invalid when none does, an
// error when a read failed other than on damage.
func (g *GNode) intactOwner(fp fingerprint.FP, sv *scrubView, bad, quarantined map[container.ID]bool) (container.ID, error) {
	cs := g.containers()
	for _, id := range sv.owners[fp] {
		if bad[id] || quarantined[id] {
			continue
		}
		_, err := cs.ReadChunk(id, fp)
		switch {
		case err == nil:
			return id, nil
		case !damage(err):
			return container.Invalid, fmt.Errorf("gnode: scrub: owner %s: %w", id, err)
		}
	}
	return container.Invalid, nil
}

// scrubFixRecipes rewrites recipes (and their catalog container lists)
// that reference quarantined containers, pointing each record at the
// chunk's surviving home. Records whose chunks are lost keep their stale
// reference — the restore path reports them loudly — and add the chunk to
// lost.
func (g *GNode) scrubFixRecipes(stats *ScrubStats, sv *scrubView, bad, quarantined map[container.ID]bool,
	moved map[fingerprint.FP]container.ID, lost map[fingerprint.FP]bool) error {

	rs := g.recipes()
	files, err := rs.Files()
	if err != nil {
		return err
	}
	// Resolved fp→container homes, shared across recipes to bound donor
	// scans.
	resolved := make(map[fingerprint.FP]container.ID, len(moved))
	for fp, id := range moved {
		resolved[fp] = id
	}
	for _, f := range files {
		// Exclusive per-file: recipes are rewritten in place and must not
		// race a backup appending a version or a restore resolving one.
		g.repo.Files.Lock(f)
		if err := g.scrubFixFile(stats, f, sv, bad, quarantined, resolved, lost); err != nil {
			g.repo.Files.Unlock(f)
			return err
		}
		g.repo.Files.Unlock(f)
	}
	return nil
}

// scrubFixFile rewrites one file's recipes away from quarantined
// containers; the caller holds the file's exclusive lock.
func (g *GNode) scrubFixFile(stats *ScrubStats, f string, sv *scrubView, bad, quarantined map[container.ID]bool,
	resolved map[fingerprint.FP]container.ID, lost map[fingerprint.FP]bool) error {

	rs := g.recipes()
	versions, err := rs.Versions(f)
	if err != nil {
		return err
	}
	for _, v := range versions {
		r, err := rs.GetRecipe(f, v)
		if err != nil {
			if errors.Is(err, oss.ErrNotFound) {
				continue
			}
			return err
		}
		changed := false
		r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
			if !quarantined[rec.Container] {
				return true
			}
			nid, ok := resolved[rec.FP]
			if !ok {
				if nid, err = g.intactOwner(rec.FP, sv, bad, quarantined); err != nil {
					return false
				}
				if ok = nid != container.Invalid; ok {
					resolved[rec.FP] = nid
				}
			}
			if ok {
				rec.Container = nid
				changed = true
			} else {
				lost[rec.FP] = true
			}
			return true
		})
		if err != nil {
			return err
		}
		if !changed {
			continue
		}
		info, err := rs.GetInfo(f, v)
		if err != nil {
			return err
		}
		if err := g.commitRecipe(rs, r, info, nil, func() error { return nil }); err != nil {
			return err
		}
		stats.RecipesRewritten++
	}
	return nil
}
