// Package workload generates the paper's evaluation datasets (Table I).
//
// S-DB — "a set of database files, each table simulated by insert, update,
// and delete operations": 500 files, 25 versions, per-file inter-version
// duplication ratio between 0.65 and 0.95 (average 0.84), 20%
// self-reference. R-Data — a real enterprise backup (7440 files, 13
// versions, average duplication 0.92, 0.1% self-reference) — is matched by
// its statistical profile.
//
// The paper itself simulates S-DB, so this package re-implements that
// generator. Generation is fully deterministic from the spec's seed, and
// sizes scale down from the paper's terabytes to laptop scale (the
// experiments report ratios and throughputs, which are size-invariant
// above a few hundred megabytes).
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// PageSize is the database-page granularity of simulated mutations.
const PageSize = 8 << 10

// Spec describes a synthetic multi-version dataset.
type Spec struct {
	Name  string
	Files int
	// FileBytes is the initial size of each file.
	FileBytes int
	Versions  int
	// DupLow/DupHigh bound the per-file inter-version duplication ratio;
	// files are assigned ratios spanning the range with mean ~DupMean.
	DupLow, DupHigh float64
	// DupSkew shapes the distribution across files (u^DupSkew); < 1 skews
	// the mean toward DupHigh.
	DupSkew float64
	// SelfRef is the fraction of version-0 content that repeats content
	// from earlier in the same file (self-reference chunks, §V-A).
	SelfRef float64
	// HotFraction caps the hot window (the file's tail that absorbs
	// HotWeight of the update runs) as a share of the file; the window is
	// otherwise sized to ~1.5x the hot budget so hot pages churn every
	// version. Database tables concentrate writes in hot pages/extents,
	// which is what leaves cold regions stable across many versions (the
	// substrate of history-aware merging).
	HotFraction float64
	// HotWeight is the fraction of update runs that land in the hot
	// region.
	HotWeight float64
	Seed      int64
}

// SDB returns the S-DB spec (Table I) scaled so each file starts at
// fileBytes and there are `files` tables. files<=0 and fileBytes<=0 pick
// small defaults suitable for tests and benches.
func SDB(files, fileBytes int) Spec {
	if files <= 0 {
		files = 8
	}
	if fileBytes <= 0 {
		fileBytes = 4 << 20
	}
	return Spec{
		Name:        "S-DB",
		Files:       files,
		FileBytes:   fileBytes,
		Versions:    25,
		DupLow:      0.65,
		DupHigh:     0.95,
		DupSkew:     0.6, // mean ≈ 0.84
		SelfRef:     0.20,
		HotFraction: 0.25,
		HotWeight:   0.9,
		Seed:        20210426,
	}
}

// RData returns the R-Data profile (Table I): many smaller files, high
// duplication, negligible self-reference.
func RData(files, fileBytes int) Spec {
	if files <= 0 {
		files = 32
	}
	if fileBytes <= 0 {
		fileBytes = 1 << 20
	}
	return Spec{
		Name:        "R-Data",
		Files:       files,
		FileBytes:   fileBytes,
		Versions:    13,
		DupLow:      0.90,
		DupHigh:     0.94,
		DupSkew:     1.0, // mean ≈ 0.92
		SelfRef:     0.001,
		HotFraction: 0.25,
		HotWeight:   0.9,
		Seed:        20210531,
	}
}

// Generator produces file versions deterministically.
type Generator struct {
	spec Spec
}

// New returns a generator for the spec.
func New(spec Spec) *Generator {
	if spec.Files <= 0 || spec.FileBytes <= 0 || spec.Versions <= 0 {
		panic(fmt.Sprintf("workload: invalid spec %+v", spec))
	}
	if spec.DupSkew <= 0 {
		spec.DupSkew = 1
	}
	return &Generator{spec: spec}
}

// Spec returns the generator's spec.
func (g *Generator) Spec() Spec { return g.spec }

// FileIDs lists the dataset's logical file names.
func (g *Generator) FileIDs() []string {
	out := make([]string, g.spec.Files)
	for i := range out {
		out[i] = fmt.Sprintf("%s/table%04d.db", g.spec.Name, i)
	}
	return out
}

// FileDupRatio returns the target inter-version duplication ratio of file i.
func (g *Generator) FileDupRatio(i int) float64 {
	if g.spec.Files == 1 {
		return (g.spec.DupLow + g.spec.DupHigh) / 2
	}
	u := float64(i) / float64(g.spec.Files-1)
	return g.spec.DupLow + (g.spec.DupHigh-g.spec.DupLow)*math.Pow(u, g.spec.DupSkew)
}

// MeanDupRatio is the average target ratio across files.
func (g *Generator) MeanDupRatio() float64 {
	var s float64
	for i := 0; i < g.spec.Files; i++ {
		s += g.FileDupRatio(i)
	}
	return s / float64(g.spec.Files)
}

// fileSeed derives the base seed of file i.
func (g *Generator) fileSeed(i int) int64 {
	return g.spec.Seed*1_000_003 + int64(i)*7919
}

// Base generates version 0 of file i: random pages, with SelfRef of the
// pages copied from earlier pages of the same file (self-reference).
func (g *Generator) Base(i int) []byte {
	r := rand.New(rand.NewSource(g.fileSeed(i)))
	pages := g.spec.FileBytes / PageSize
	if pages < 4 {
		pages = 4
	}
	out := make([]byte, 0, pages*PageSize)
	page := make([]byte, PageSize)
	for p := 0; p < pages; p++ {
		if p > 0 && r.Float64() < g.spec.SelfRef {
			src := r.Intn(p)
			out = append(out, out[src*PageSize:(src+1)*PageSize]...)
			continue
		}
		r.Read(page)
		out = append(out, page...)
	}
	return out
}

// Next evolves data into the next version of file i with insert, update,
// and delete operations touching ~1-dup of the bytes. v identifies the
// version being created (for deterministic seeding).
func (g *Generator) Next(i, v int, data []byte) []byte {
	r := rand.New(rand.NewSource(g.fileSeed(i) ^ int64(v)*104729))
	dup := g.FileDupRatio(i)
	pages := len(data) / PageSize
	if pages < 4 {
		return append([]byte{}, data...)
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
	// The one allocation of a version: the previous bytes plus room for the
	// insert run, so opening the gap below never reallocates the file.
	// make-then-copy of one length is the form the compiler allocates
	// without zeroing what the copy overwrites.
	out := make([]byte, len(data)+inserts*PageSize)
	copy(out, data)
	out = out[:len(data)]

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
		at := (lo + r.Intn(len(out)/PageSize-lo+1)) * PageSize
		n := inserts * PageSize
		out = out[:len(out)+n]
		copy(out[at+n:], out[at:]) // overlapping: copy is a memmove
		r.Read(out[at : at+n])
	}
	if deletes > 0 && len(out) > (deletes+8)*PageSize && len(out)/PageSize-deletes > hotLo {
		p := hotLo + r.Intn(len(out)/PageSize-deletes-hotLo)
		out = append(out[:p*PageSize], out[(p+deletes)*PageSize:]...)
	}
	return out
}

// Version materialises version v of file i by chaining mutations from the
// base. O(v · size); use VersionSeq to stream all versions in order.
func (g *Generator) Version(i, v int) []byte {
	data := g.Base(i)
	for k := 1; k <= v; k++ {
		data = g.Next(i, k, data)
	}
	return data
}

// VersionSeq calls fn with each version of file i in order, reusing the
// chained state (fn must not retain the slice).
func (g *Generator) VersionSeq(i int, fn func(v int, data []byte) error) error {
	data := g.Base(i)
	if err := fn(0, data); err != nil {
		return err
	}
	for v := 1; v < g.spec.Versions; v++ {
		data = g.Next(i, v, data)
		if err := fn(v, data); err != nil {
			return err
		}
	}
	return nil
}

// Stats describes the generated dataset, for reproducing Table I.
type Stats struct {
	Name       string
	TotalBytes int64
	Versions   int
	Files      int
	MeanDup    float64
	SelfRef    float64
}

// Stats computes dataset statistics. Total size is estimated as files ×
// versions × file size (insert/delete drift is ~zero-mean).
func (g *Generator) Stats() Stats {
	return Stats{
		Name:       g.spec.Name,
		TotalBytes: int64(g.spec.Files) * int64(g.spec.Versions) * int64(g.spec.FileBytes),
		Versions:   g.spec.Versions,
		Files:      g.spec.Files,
		MeanDup:    g.MeanDupRatio(),
		SelfRef:    g.spec.SelfRef,
	}
}

// MeasureDup measures the actual byte-level duplication ratio between two
// consecutive versions of file i (shared pages / total pages of the new
// version) — used to validate the generator against its targets.
func (g *Generator) MeasureDup(i, v int) float64 {
	if v < 1 {
		return 0
	}
	prev := g.Version(i, v-1)
	cur := g.Version(i, v)
	seen := make(map[string]int)
	for p := 0; p+PageSize <= len(prev); p += PageSize {
		seen[string(prev[p:p+PageSize])]++
	}
	shared := 0
	total := 0
	for p := 0; p+PageSize <= len(cur); p += PageSize {
		total++
		key := string(cur[p : p+PageSize])
		if seen[key] > 0 {
			seen[key]--
			shared++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(shared) / float64(total)
}
