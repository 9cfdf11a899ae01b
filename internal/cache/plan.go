package cache

import (
	"sort"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/simclock"
)

// This file is the ranged-read planner (DESIGN.md §10). After reverse
// deduplication and SCC, a container referenced by an old version often
// holds only a few chunks that version still needs; fetching the whole
// 4 MiB object to serve 32 KiB is read amplification the simclock cost
// model makes visible. Given the chunks a job needs from a container and
// its metadata, Plan chooses between one full GET and k coalesced ranged
// GETs by comparing the modelled virtual-time cost of each. Split then
// cuts the long reads among all of the job's plans (DESIGN.md §10). It has
// two clients: a restore (lnode.newRestoreIO) and the G-node's compaction
// and rewrite reads (gnode.schedule).

// ReadPlan is the planner's verdict for one container.
type ReadPlan struct {
	// Full selects a whole-object read (when dense enough that span
	// requests would cost more than the saved bandwidth).
	Full bool
	// Spans are the coalesced ranges to fetch when !Full, in ascending
	// offset order, chunk indexes resolved exactly as Meta.Find would.
	Spans []container.Span
	// Reads are the requests that execute the plan, for
	// container.Store.ReadSpans: nil for one GET per part of the payload,
	// Spans cut where a part ends for a ranged plan, and after Split either
	// with its long reads cut into pieces (a Full plan's tile the payload
	// and list no chunks: a whole read verifies every live one).
	Reads []container.Span
	// NeedBytes is the payload actually required (sum of needed chunk
	// sizes); SpanBytes includes the coalescing gaps fetched alongside.
	NeedBytes int64
	SpanBytes int64
	// FullCost and RangedCost are the modelled virtual times the choice
	// compared.
	FullCost   time.Duration
	RangedCost time.Duration
}

// coalesceGap returns the break-even gap in bytes: fetching g gap bytes
// costs g/bandwidth, splitting a span costs one request latency, so gaps
// up to latency×bandwidth are cheaper to read through than to split on.
func coalesceGap(costs simclock.Costs) int64 {
	return int64(costs.OSSRequestLatency.Seconds() * costs.OSSReadBandwidth)
}

// readCost models one OSS read session of k requests totalling n bytes.
func readCost(costs simclock.Costs, k int, n int64) time.Duration {
	d := time.Duration(k) * costs.OSSRequestLatency
	if costs.OSSReadBandwidth > 0 {
		d += time.Duration(float64(n) / costs.OSSReadBandwidth * float64(time.Second))
	}
	return d
}

// Plan decides how to read container m to serve the fingerprints in need.
// It resolves each needed fingerprint to the same record Meta.Find would
// return (the first, in chunk order), coalesces the resulting payload
// ranges when the gap between them is cheaper to read through than a new
// request (gap ≤ latency×bandwidth), and compares the modelled cost of
// the span reads against a full read, each priced by its requests: one GET
// per part of the payload, one ranged read per span and part it touches.
// Fingerprints absent from m are ignored — the caller resolved the
// sequence under pins, so absence means the request is served by a
// different container.
//
// The output is deterministic: chunk order drives resolution and span
// order, so equal (meta, need) inputs always produce the same plan.
func Plan(m *container.Meta, need map[fingerprint.FP]bool, costs simclock.Costs) ReadPlan {
	resolved := make(map[fingerprint.FP]bool, len(need))
	var idxs []int
	for i := range m.Chunks {
		fp := m.Chunks[i].FP
		if need[fp] && !resolved[fp] {
			resolved[fp] = true
			idxs = append(idxs, i)
		}
	}
	var p ReadPlan
	fullBytes := int64(m.DataSize) + container.FooterSize
	p.FullCost = readCost(costs, m.NumParts(), fullBytes) // one GET per part
	if len(idxs) == 0 {
		// Nothing needed here; degenerate full plan so callers that fetch
		// anyway still behave.
		p.Full = true
		p.RangedCost = p.FullCost
		return p
	}
	sort.Slice(idxs, func(a, b int) bool {
		ca, cb := &m.Chunks[idxs[a]], &m.Chunks[idxs[b]]
		if ca.Offset != cb.Offset {
			return ca.Offset < cb.Offset
		}
		return idxs[a] < idxs[b]
	})

	gap := coalesceGap(costs)
	var spans []container.Span
	for _, i := range idxs {
		cm := &m.Chunks[i]
		off, end := int64(cm.Offset), int64(cm.Offset)+int64(cm.Size)
		p.NeedBytes += int64(cm.Size)
		if n := len(spans); n > 0 {
			last := &spans[n-1]
			lastEnd := last.Off + last.Len
			if off <= lastEnd+gap {
				if end > lastEnd {
					last.Len = end - last.Off
				}
				last.Chunks = append(last.Chunks, i)
				continue
			}
		}
		spans = append(spans, container.Span{Off: off, Len: end - off, Chunks: []int{i}})
	}
	var reads []container.Span // spans, cut where a part ends: one request each
	for _, sp := range spans {
		p.SpanBytes += sp.Len
		reads = append(reads, byPart(m, sp)...)
	}
	p.RangedCost = readCost(costs, len(reads), p.SpanBytes)
	// Ranged must beat full by a clear margin, not a hair: with the gap
	// threshold at the latency/bandwidth break-even, greedy coalescing
	// makes RangedCost ≤ FullCost almost always, but a full object is
	// admissible to the node-wide shared cache and reusable by every
	// concurrent job, while span reads serve only this need-set. The bias
	// keeps near-dense restores on the shareable path.
	if p.RangedCost < p.FullCost-p.FullCost/8 {
		p.Spans, p.Reads = spans, reads
	} else {
		p.Full = true
	}
	return p
}

// Split cuts the long reads of one job — a restore, a G-node pass — so
// that its channels share the bytes (DESIGN.md §10). plans are the read
// plans of the job's containers in the order it first needs them, metas[i]
// what plans[i] was made from. Walking the reads in that order with rem =
// the bytes still to fetch, this read included, a read (a Full plan's
// payload, or one span) longer than its fair share
//
//	share = max(rem/threads, L·B)   L·B = OSSRequestLatency × OSSReadBandwidth
//
// is cut into k = min(⌈length/share⌉, container.Pieces(length, L·B))
// near-equal pieces at chunk boundaries, none under L·B: no piece is cut
// whose last would not save two request latencies; a lone 1 MiB read at
// the default costs becomes 3 pieces, a 4 MiB one 5. The first cuts are
// where a part of the payload ends, which the read takes anyway; each part
// is then cut so that no piece is longer than a k-th of the read. This is
// guided self-scheduling: nothing is cut while many reads remain, the last
// few finer and finer, and the channels run dry together.
//
// The result is a function of its arguments alone — never of timing or of
// what the store is seen to do — so a job's requests and virtual time
// repeat exactly. threads ≤ 1 (or an L·B of zero) cuts nothing.
func Split(plans []ReadPlan, metas []*container.Meta, threads int, costs simclock.Costs) {
	lb := coalesceGap(costs)
	if threads <= 1 || lb <= 0 {
		return
	}
	var rem int64
	for i := range plans {
		if plans[i].Full {
			rem += int64(metas[i].DataSize)
		} else {
			rem += plans[i].SpanBytes
		}
	}
	// cut cuts sp, the walk's next read, into its pieces, moving the walk on.
	cut := func(m *container.Meta, sp container.Span) []container.Span {
		share := max(rem/int64(threads), lb)
		rem -= sp.Len
		k := min((sp.Len+share-1)/share, int64(container.Pieces(sp.Len, lb)))
		var out []container.Span
		for _, seg := range byPart(m, sp) { // no piece longer than a k-th of sp
			n := (k*seg.Len + sp.Len - 1) / max(sp.Len, 1)
			out = append(out, container.CutSpan(m, seg, int(max(n, 1)), lb)...)
		}
		return out
	}
	for i := range plans {
		p, m := &plans[i], metas[i]
		if !p.Full {
			p.Reads = make([]container.Span, 0, len(p.Spans))
			for _, sp := range p.Spans {
				p.Reads = append(p.Reads, cut(m, sp)...)
			}
			continue
		}
		// A whole read is one GET per part: only when a part is cut further
		// do the pieces of every part become the reads, which list no chunks.
		reads := cut(m, container.Span{Len: int64(m.DataSize), Chunks: container.InOffsetOrder(m, true)})
		if len(reads) > m.NumParts() {
			for j := range reads {
				reads[j].Chunks = nil
			}
			p.Reads = reads
		}
	}
}

// byPart cuts sp, a read of m's payload listing its chunks in ascending
// offset order, where a part of the payload ends.
func byPart(m *container.Meta, sp container.Span) []container.Span {
	var out []container.Span
	for _, at := range m.Parts {
		if end := int64(at); end > sp.Off && end < sp.Off+sp.Len {
			n := sort.Search(len(sp.Chunks), func(n int) bool { return int64(m.Chunks[sp.Chunks[n]].Offset) >= end })
			out = append(out, container.Span{Off: sp.Off, Len: end - sp.Off, Chunks: sp.Chunks[:n]})
			sp = container.Span{Off: end, Len: sp.Off + sp.Len - end, Chunks: sp.Chunks[n:]}
		}
	}
	return append(out, sp)
}
