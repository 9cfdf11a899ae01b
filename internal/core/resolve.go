package core

import (
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
)

// Resolution is where the chunks of a run of recipe records live now.
type Resolution struct {
	// Seq is the request sequence, one per record in order: the record's
	// home, or where the global index moved its chunk, or container.Invalid
	// for a chunk that is lost — gone from its home and absent from the
	// index.
	Seq []cache.Request
	// Redirects counts the records whose chunk is not at its home.
	Redirects int
	// Metas holds every container consulted, nil for one whose meta is not
	// found: the homes and the redirect targets, the exact states Seq was
	// resolved against.
	Metas map[container.ID]*container.Meta
	// MetaReads counts the containers consulted (one meta read each);
	// MemoHits the per-record lookups served from Metas instead.
	MetaReads, MemoHits int
}

// Resolve answers, for the restore, a backup's lost-container check and
// FullSweep's mark alike, "where does this record's chunk live now?" (paper
// §VI-A: a chunk reverse dedup or SCC moved out of an old version's home
// container is found through the global index, one lookup per moved chunk).
//
// It is a fixed number of round-trip waves whatever the number of records:
// the metas of the distinct homes, width wide (ReadMetas); every record
// classified against them; one Global.GetBatch for the moved fingerprints;
// the metas of the redirect targets. The result does not depend on width.
// A meta that is not found is a container gone — its chunks redirect — and
// any other read failure is returned: a fault must not pass for relocation.
// What a lost chunk means is the caller's: a restore fails, a sweep leaves
// it unmarked.
//
// settled, when not nil and there is an index probe to come, is called on
// the caller's goroutine between the home-meta wave and the probe, with the
// requests of the records found at their homes (in record order) and the
// metas read so far: nothing the probe answers changes those, so a restore
// starts their reads there (DESIGN.md §14). metas is valid during the call
// only.
func (r *Repo) Resolve(cs *container.Store, recs []*recipe.ChunkRecord, width int, acct *simclock.Account,
	settled func(seq []cache.Request, metas map[container.ID]*container.Meta)) (*Resolution, error) {
	res := &Resolution{Seq: make([]cache.Request, len(recs)), Metas: make(map[container.ID]*container.Meta)}
	// readNew reads the metas of those ids not yet in res.Metas, each once.
	readNew := func(ids []container.ID) error {
		var fresh []container.ID
		for _, id := range ids {
			if _, seen := res.Metas[id]; !seen && id != container.Invalid {
				res.Metas[id] = nil
				fresh = append(fresh, id)
			}
		}
		metas, err := r.ReadMetas(cs, fresh, width)
		for i, m := range metas {
			res.Metas[fresh[i]] = m
		}
		return err
	}

	homes := make([]container.ID, len(recs))
	for i, rec := range recs {
		homes[i] = rec.Container
	}
	if err := readNew(homes); err != nil {
		return nil, err
	}
	var moved []int // indexes into recs of chunks no longer at their recorded home
	var movedFPs []fingerprint.FP
	for i, rec := range recs {
		res.Seq[i] = cache.Request{FP: rec.FP, Container: rec.Container, Size: rec.Size}
		if m := res.Metas[rec.Container]; m != nil {
			if cm := m.Find(rec.FP); cm != nil && !cm.Deleted {
				continue
			}
		}
		moved = append(moved, i)
		movedFPs = append(movedFPs, rec.FP)
	}
	if len(moved) > 0 {
		if settled != nil {
			home := make([]cache.Request, 0, len(recs)-len(moved))
			for i, k := 0, 0; i < len(recs); i++ {
				if k < len(moved) && moved[k] == i {
					k++
					continue
				}
				home = append(home, res.Seq[i])
			}
			settled(home, res.Metas)
		}
		acct.ChargeCPU(simclock.PhaseIndexQuery, time.Duration(len(moved))*r.Config.Costs.IndexLookup)
		ids, found, _, err := r.Global.GetBatch(movedFPs)
		if err != nil {
			return nil, err
		}
		for k, i := range moved {
			if !found[k] {
				ids[k] = container.Invalid
			}
			res.Seq[i].Container = ids[k]
		}
		if err := readNew(ids); err != nil {
			return nil, err
		}
	}
	// One lookup per record plus one per redirect; each distinct container
	// was read once and every other lookup served from the memo.
	res.Redirects = len(moved)
	res.MetaReads = len(res.Metas)
	res.MemoHits = len(recs) + len(moved) - res.MetaReads
	return res, nil
}
