package workload

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestNextMatchesReference pins Next's output byte for byte against the
// three-allocation body it replaced, over S-DB and R-Data chains: the
// single-allocation version must draw from the RNG in the same order and
// put every byte where the old append-of-append did.
func TestNextMatchesReference(t *testing.T) {
	for _, spec := range []Spec{SDB(3, 1<<20), RData(3, 1<<20)} {
		g := New(spec)
		for i := 0; i < 3; i++ {
			data := g.Base(i)
			for v := 1; v <= 6; v++ {
				want := nextReference(g, i, v, data)
				got := g.Next(i, v, data)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s file %d v%d: Next differs from the reference (%d vs %d bytes)",
						spec.Name, i, v, len(got), len(want))
				}
				if len(got) > 0 && len(data) > 0 && &got[0] == &data[0] {
					t.Fatalf("%s file %d v%d: Next returned its input's memory", spec.Name, i, v)
				}
				data = got
			}
		}
	}
}

// TestNextAllocatesOnce: one version costs one file-sized allocation, not
// a copy, an insert buffer, an insert+tail temporary and a regrown file.
func TestNextAllocatesOnce(t *testing.T) {
	g := New(SDB(1, 4<<20))
	data := g.Base(0)
	allocs := testing.AllocsPerRun(3, func() { sink = g.Next(0, 1, data) })
	// The version itself plus the rand.Rand and its source.
	if allocs > 4 {
		t.Fatalf("Next made %.0f allocations, want the version and the RNG only", allocs)
	}
}

var sink []byte

// nextReference is Next as it stood before it was rewritten to allocate
// once; kept verbatim as the oracle.
func nextReference(g *Generator, i, v int, data []byte) []byte {
	r := rand.New(rand.NewSource(g.fileSeed(i) ^ int64(v)*104729))
	dup := g.FileDupRatio(i)
	out := append([]byte{}, data...)
	pages := len(out) / PageSize
	if pages < 4 {
		return out
	}
	// Changed pages ≈ (1-dup) of the file. Overwriting a self-referenced
	// page leaves its twin intact (the content is still duplicated), so
	// the budget compensates by 1/(1-SelfRef). Of the change budget: 80%
	// updates, 10% inserts, 10% deletes (in pages).
	//
	// Mutations land as contiguous runs of pages, one run per stratum of
	// the file — database updates touch ranges (a batch of rows, an
	// extent), not isolated random pages. Clustering is what makes the
	// history-aware optimisations historical: regions missed by several
	// versions' runs accumulate duplicateTimes and merge into superchunks
	// that keep matching.
	budget := int(float64(pages) * (1 - dup) / (1 - g.spec.SelfRef))
	if budget < 1 {
		budget = 1
	}
	if budget > pages/2 {
		budget = pages / 2
	}
	updates := budget * 8 / 10
	inserts := budget / 10
	deletes := budget - updates - inserts

	const runLen = 32 // 256 KiB update ranges
	hotBudget := int(float64(updates) * g.spec.HotWeight)
	coldBudget := updates - hotBudget
	hotRuns := (hotBudget + runLen - 1) / runLen
	coldRuns := (coldBudget + runLen - 1) / runLen

	// applyRuns stratifies `count` runs over the page window [lo, hi).
	applyRuns := func(count, lo, hi int, left *int) {
		if count < 1 || hi-lo < 1 {
			return
		}
		for k := 0; k < count && *left > 0; k++ {
			n := runLen
			if n > *left {
				n = *left
			}
			*left -= n
			win := hi - lo
			stratum := lo + win*k/count
			span := win/count - n
			if span < 1 {
				span = 1
			}
			start := stratum + r.Intn(span)
			if start+n > hi {
				start = hi - n
			}
			if start < lo {
				start = lo
			}
			end := start + n
			if end > len(out)/PageSize {
				end = len(out) / PageSize
			}
			r.Read(out[start*PageSize : end*PageSize])
		}
	}
	// The hot window (the file's tail) is sized to ~1.5x the hot budget:
	// hot pages are overwritten so often they never accumulate
	// duplicateTimes, while cold pages are touched only by the occasional
	// cold run — the hot/cold split real database tables exhibit.
	cur := len(out) / PageSize
	hotPages := hotBudget * 3 / 2
	if hotPages < runLen {
		hotPages = runLen
	}
	// HotFraction caps the window only when the cap still fits the hot
	// budget — a window smaller than the budget would saturate and break
	// the file's duplication-ratio target.
	if cap := int(float64(cur) * g.spec.HotFraction); g.spec.HotFraction > 0 && cap > hotBudget && hotPages > cap {
		hotPages = cap
	}
	if hotPages > cur/2 {
		hotPages = cur / 2
	}
	hotLo := cur - hotPages
	hotLeft := hotBudget
	coldLeft := coldBudget
	applyRuns(hotRuns, hotLo, cur, &hotLeft)
	applyRuns(coldRuns, 0, hotLo, &coldLeft)
	if rem := hotLeft + coldLeft; rem > 0 { // degenerate windows: spend uniformly
		applyRuns(1, 0, cur, &rem)
	}
	// One insert run and one delete run (extent growth/shrink), inside the
	// hot window like real tables growing and vacuuming at the tail.
	if inserts > 0 {
		lo := hotLo
		p := lo + r.Intn(len(out)/PageSize-lo+1)
		ins := make([]byte, inserts*PageSize)
		r.Read(ins)
		out = append(out[:p*PageSize], append(ins, out[p*PageSize:]...)...)
	}
	if deletes > 0 && len(out) > (deletes+8)*PageSize && len(out)/PageSize-deletes > hotLo {
		p := hotLo + r.Intn(len(out)/PageSize-deletes-hotLo)
		out = append(out[:p*PageSize], out[(p+deletes)*PageSize:]...)
	}
	return out
}
