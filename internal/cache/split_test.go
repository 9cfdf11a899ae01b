package cache

import (
	"bufio"
	"container/heap"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/simclock"
)

// restorePlans is one restore as Split sees it: the plans of its containers
// in first-need order and the metadata each was made from.
type restorePlans struct {
	name  string
	plans []ReadPlan
	metas []*container.Meta
}

func nthFP(n int) (fp fingerprint.FP) {
	fp[0], fp[1], fp[2], fp[3], fp[4] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n), 0xA5
	return fp
}

// loadRecordedPlans parses testdata/sdb-cloud-seed1.plans (format at the top
// of the file) into what cache.Plan returned for each container. A ranged
// plan's metadata holds its needed chunks only: Split reads nothing else.
func loadRecordedPlans(t testing.TB) []restorePlans {
	t.Helper()
	f, err := os.Open("testdata/sdb-cloud-seed1.plans")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []restorePlans
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	fps := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "plan "):
			out = append(out, restorePlans{name: strings.TrimPrefix(line, "plan ")})
		default:
			head, body, ok := strings.Cut(line, " : ")
			kind, size, _ := strings.Cut(head, " ")
			dataSize, err := strconv.ParseUint(size, 10, 32)
			if !ok || err != nil || len(out) == 0 {
				t.Fatalf("bad line %q", line)
			}
			m := &container.Meta{ID: container.ID(len(out[len(out)-1].plans) + 1), DataSize: uint32(dataSize)}
			p := ReadPlan{Full: kind == "F"}
			for _, group := range strings.Split(body, " | ") {
				var cur int64
				sp := container.Span{Off: -1}
				for _, tok := range strings.Fields(group) {
					if at, ok := strings.CutPrefix(tok, "@"); ok {
						if cur, err = strconv.ParseInt(at, 10, 64); err != nil {
							t.Fatalf("bad offset %q", tok)
						}
						continue
					}
					n, err := strconv.ParseUint(tok, 10, 32)
					if err != nil {
						t.Fatalf("bad chunk size %q", tok)
					}
					if sp.Off < 0 {
						sp.Off = cur
					}
					sp.Chunks = append(sp.Chunks, len(m.Chunks))
					m.Chunks = append(m.Chunks, container.ChunkMeta{FP: nthFP(fps), Offset: uint32(cur), Size: uint32(n)})
					fps++
					cur += int64(n)
					p.NeedBytes += int64(n)
				}
				sp.Len = cur - sp.Off
				if !p.Full {
					p.Spans = append(p.Spans, sp)
					p.SpanBytes += sp.Len
				}
			}
			p.Reads = p.Spans
			rp := &out[len(out)-1]
			rp.plans, rp.metas = append(rp.plans, p), append(rp.metas, m)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// clonePlans copies the slice headers Split rewrites.
func clonePlans(ps []ReadPlan) []ReadPlan { return append([]ReadPlan(nil), ps...) }

// freeAt is a min-heap of the times the read channels fall free.
type freeAt []time.Duration

func (h freeAt) Len() int           { return len(h) }
func (h freeAt) Less(i, j int) bool { return h[i] < h[j] }
func (h freeAt) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *freeAt) Push(x any)        { *h = append(*h, x.(time.Duration)) }
func (h *freeAt) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// listSchedule is when the last of jobs ends if each, in order, goes to the
// channel that falls free first.
func listSchedule(jobs []time.Duration, channels int) time.Duration {
	h := make(freeAt, channels)
	var end time.Duration
	for _, d := range jobs {
		at := h[0] + d
		h[0] = at
		heap.Fix(&h, 0)
		end = max(end, at)
	}
	return end
}

// dataPhase models a restore's reads on `channels` channels under costs:
// whole-container units whose spans run one after another (how reads were
// scheduled before requests were), or the plans' requests one by one.
func dataPhase(rp restorePlans, plans []ReadPlan, channels int, costs simclock.Costs, perRequest bool) (end time.Duration, requests int) {
	var jobs []time.Duration
	for i, p := range plans {
		reads := p.Reads
		if reads == nil {
			reads = []container.Span{{Len: int64(rp.metas[i].DataSize) + container.FooterSize}}
		}
		requests += len(reads)
		var unit time.Duration
		for _, r := range reads {
			if perRequest {
				jobs = append(jobs, readCost(costs, 1, r.Len))
			}
			unit += readCost(costs, 1, r.Len)
		}
		if !perRequest {
			jobs = append(jobs, unit)
		}
	}
	return listSchedule(jobs, channels), requests
}

// TestSplitRecordedPlans replays the split rule over the twelve recorded
// restores of sdb-cloud under the default costs, six channels, in-order list
// scheduling. This is the place a better deterministic rule has to show
// itself. Held here: every restore's modelled data phase shrinks, by 15 %
// in the mean (104.4 → 83.7 ms), for at most ten extra requests each; the
// outcome repeats exactly. The recorded containers hold merged chunks of
// up to 2 MiB, which no chunk-boundary cut can split. Cutting at any byte
// instead was modelled too and is not worth it: it takes the six latest
// restores only from 524 to 495 ms, for more requests. What pays is the
// order the requests run in (TestWindowRecordedPlans: 465 ms).
func TestSplitRecordedPlans(t *testing.T) {
	const channels = 6
	costs := simclock.DefaultCosts()
	recorded := loadRecordedPlans(t)
	if len(recorded) != 12 {
		t.Fatalf("%d recorded plans, want 12", len(recorded))
	}
	var sumBefore, sumAfter time.Duration
	for _, rp := range recorded {
		before, reqBefore := dataPhase(rp, rp.plans, channels, costs, false)
		cut := clonePlans(rp.plans)
		Split(cut, rp.metas, channels, costs)
		after, reqAfter := dataPhase(rp, cut, channels, costs, true)
		t.Logf("%-14s %2d containers  %5.1f ms in %2d requests -> %5.1f ms in %2d  (%.2f)", rp.name, len(rp.plans),
			before.Seconds()*1e3, reqBefore, after.Seconds()*1e3, reqAfter, float64(after)/float64(before))
		if float64(after) > 0.95*float64(before) {
			t.Errorf("%s: modelled data phase %v -> %v, want at most 0.95 of it", rp.name, before, after)
		}
		if extra := reqAfter - reqBefore; extra > 10 {
			t.Errorf("%s: %d extra requests, want at most 10", rp.name, extra)
		}
		again := clonePlans(rp.plans)
		Split(again, rp.metas, channels, costs)
		if !reflect.DeepEqual(cut, again) {
			t.Errorf("%s: two runs of Split differ", rp.name)
		}
		checkSplit(t, rp.name, rp, cut, channels, costs)
		sumBefore += before
		sumAfter += after
	}
	t.Logf("mean %.1f ms -> %.1f ms", sumBefore.Seconds()*1e3/12, sumAfter.Seconds()*1e3/12)
	if float64(sumAfter) > 0.85*float64(sumBefore) {
		t.Errorf("mean modelled data phase %v -> %v, want at most 0.85 of it", sumBefore/12, sumAfter/12)
	}
}

// TestSplitSmallJob: a restore of one container has no other read to share
// its channels with, so its one read is cut as far as the last piece still
// pays for its request — and no further, and never where a piece would cost
// more than it saves or the cost model cannot price one.
func TestSplitSmallJob(t *testing.T) {
	costs := simclock.DefaultCosts()
	noLatency, noBandwidth := costs, costs
	noLatency.OSSRequestLatency = 0
	noBandwidth.OSSReadBandwidth = 0
	for _, tc := range []struct {
		name     string
		size     uint32 // bytes of 8 KiB chunks, all needed
		threads  int
		costs    simclock.Costs
		pieces   int     // 1: left whole
		maxRatio float64 // modelled data phase, cut ÷ whole
	}{
		{"1MiB", 1 << 20, 6, costs, 3, 0.45},
		{"4MiB", 4 << 20, 6, costs, 5, 0.30},
		{"1MiB-two-channels", 1 << 20, 2, costs, 2, 0.60},
		{"120KiB", 120 << 10, 6, costs, 1, 1},
		{"1MiB-one-channel", 1 << 20, 1, costs, 1, 1},
		{"1MiB-no-channels", 1 << 20, 0, costs, 1, 1},
		{"1MiB-no-latency", 1 << 20, 6, noLatency, 1, 1},
		{"1MiB-no-bandwidth", 1 << 20, 6, noBandwidth, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := planMeta(int(tc.size/(8<<10)), 8<<10)
			need := make(map[fingerprint.FP]bool)
			for _, cm := range m.Chunks {
				need[cm.FP] = true
			}
			rp := restorePlans{name: tc.name, metas: []*container.Meta{m}}
			rp.plans = []ReadPlan{Plan(m, need, tc.costs)}
			if !rp.plans[0].Full {
				t.Fatalf("fixture: a container whose every chunk is needed planned ranged")
			}
			cut := clonePlans(rp.plans)
			Split(cut, rp.metas, tc.threads, tc.costs)
			checkSplit(t, tc.name, rp, cut, tc.threads, tc.costs)
			if got := max(len(cut[0].Reads), 1); got != tc.pieces {
				t.Fatalf("read cut into %d pieces, want %d", got, tc.pieces)
			}
			before, _ := dataPhase(rp, rp.plans, max(tc.threads, 1), costs, true)
			after, _ := dataPhase(rp, cut, max(tc.threads, 1), costs, true)
			t.Logf("%v -> %v (%.2f)", before, after, float64(after)/float64(before))
			if float64(after) > tc.maxRatio*float64(before) {
				t.Fatalf("modelled data phase %v -> %v, want at most %.2f of it", before, after, tc.maxRatio)
			}
		})
	}
}

// checkSplit holds cut, Split's output for rp at `threads`, to what every
// output must satisfy: the pieces of a read tile it exactly, in order; a
// cut falls only where a listed (for a Full plan: live) chunk starts and no
// other one straddles it; every needed chunk is listed by exactly one piece,
// the one it lies in; no piece is shorter than L·B unless the read it was
// cut from is, and no read is cut into more pieces than pieceLimit allows;
// and with threads ≤ 1 nothing changes at all.
func checkSplit(t testing.TB, name string, rp restorePlans, cut []ReadPlan, threads int, costs simclock.Costs) {
	t.Helper()
	lb := coalesceGap(costs)
	for i := range cut {
		orig, p, m := &rp.plans[i], &cut[i], rp.metas[i]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("%s: container %d (threads %d): %s", name, i, threads, fmt.Sprintf(format, args...))
		}
		if p.Full != orig.Full || !reflect.DeepEqual(p.Spans, orig.Spans) || p.SpanBytes != orig.SpanBytes {
			fail("Split changed the plan itself, not only its reads")
		}
		if threads <= 1 || lb <= 0 {
			if !reflect.DeepEqual(p.Reads, orig.Reads) {
				fail("reads changed: %v -> %v", orig.Reads, p.Reads)
			}
			continue
		}
		if p.Full {
			if p.Reads == nil {
				continue
			}
			if n, limit := len(p.Reads), pieceLimit(int64(m.DataSize), lb); n < 2 || n > limit {
				fail("a whole read of %d bytes cut into %d pieces, want 2 to %d", m.DataSize, n, limit)
			}
			var at int64
			for _, r := range p.Reads {
				if r.Off != at || r.Len < lb || r.Chunks != nil {
					fail("piece %+v does not continue at %d, is under L·B %d, or lists chunks", r, at, lb)
				}
				at += r.Len
			}
			if at != int64(m.DataSize) {
				fail("pieces end at %d, payload at %d", at, m.DataSize)
			}
			for _, r := range p.Reads[1:] {
				starts := false
				for k := range m.Chunks {
					cm := &m.Chunks[k]
					if cm.Deleted {
						continue
					}
					starts = starts || int64(cm.Offset) == r.Off
					if int64(cm.Offset) < r.Off && int64(cm.Offset)+int64(cm.Size) > r.Off {
						fail("cut at %d splits live chunk [%d,+%d)", r.Off, cm.Offset, cm.Size)
					}
				}
				if !starts {
					fail("cut at %d is no live chunk's start", r.Off)
				}
			}
			continue
		}
		// Ranged: the reads, walked in order, regroup into the planned spans.
		reads := p.Reads
		for _, sp := range orig.Spans {
			at, listed, n := sp.Off, []int(nil), 0
			for first := true; first || at < sp.Off+sp.Len; first = false { // a span of no bytes (a chunk of none) is still one read
				if len(reads) == 0 || reads[0].Off != at || reads[0].Len <= 0 && sp.Len > 0 {
					fail("span [%d,+%d): no piece continues at %d", sp.Off, sp.Len, at)
				}
				r := reads[0]
				reads = reads[1:]
				for _, ci := range r.Chunks {
					cm := &m.Chunks[ci]
					if int64(cm.Offset) < r.Off || int64(cm.Offset)+int64(cm.Size) > r.Off+r.Len {
						fail("piece [%d,+%d) lists chunk [%d,+%d) outside it", r.Off, r.Len, cm.Offset, cm.Size)
					}
				}
				if r.Off != sp.Off && (len(r.Chunks) == 0 || int64(m.Chunks[r.Chunks[0]].Offset) != r.Off) {
					fail("cut at %d is not the start of the piece's first chunk", r.Off)
				}
				listed = append(listed, r.Chunks...)
				at += r.Len
				n++
				if r.Len < lb && sp.Len >= lb {
					fail("piece [%d,+%d) under L·B %d, cut from a span of %d", r.Off, r.Len, lb, sp.Len)
				}
			}
			if limit := pieceLimit(sp.Len, lb); n > limit {
				fail("span [%d,+%d) cut into %d pieces, want at most %d", sp.Off, sp.Len, n, limit)
			}
			if at != sp.Off+sp.Len || !reflect.DeepEqual(listed, sp.Chunks) {
				fail("span [%d,+%d) with chunks %v became pieces ending at %d with chunks %v", sp.Off, sp.Len, sp.Chunks, at, listed)
			}
		}
		if len(reads) != 0 {
			fail("%d reads belong to no planned span", len(reads))
		}
	}
}

// pieceLimit is the most pieces a read of length bytes may be cut into:
// the largest p whose last piece still saves two request latencies,
// length/B·(1/(p−1) − 1/p) ≥ 2L, that is 2·p(p−1)·L·B ≤ length.
func pieceLimit(length, lb int64) int {
	p := int64(1)
	for 2*p*(p+1)*lb <= length {
		p++
	}
	return int(p)
}

// randomRestore builds a restore of n containers: chunk sizes from a few
// KiB to 2 MiB (merged chunks), some chunks deleted, a need-set dense in
// some containers and sparse in others, planned with cache.Plan.
func randomRestore(rng *rand.Rand, n int, costs simclock.Costs) restorePlans {
	rp := restorePlans{name: "random"}
	fps := 0
	for c := 0; c < n; c++ {
		m := &container.Meta{ID: container.ID(c + 1)}
		target := uint32(rng.Intn(4<<20) + 1)
		for m.DataSize < target {
			size := uint32(rng.Intn(16<<10) + 512)
			if rng.Intn(40) == 0 {
				size = uint32(rng.Intn(2<<20) + 64<<10)
			}
			m.Chunks = append(m.Chunks, container.ChunkMeta{FP: nthFP(fps), Offset: m.DataSize, Size: size, Deleted: rng.Intn(10) == 0})
			fps++
			m.DataSize += size
		}
		density := []float64{1, 1, 0.5, 0.05, 0.01}[rng.Intn(5)]
		need := make(map[fingerprint.FP]bool)
		for i := range m.Chunks {
			if !m.Chunks[i].Deleted && rng.Float64() < density {
				need[m.Chunks[i].FP] = true
			}
		}
		rp.metas = append(rp.metas, m)
		rp.plans = append(rp.plans, Plan(m, need, costs))
	}
	return rp
}

// TestSplitProperties: checkSplit over random restores at every thread
// count, including the zero-cost model under which nothing may be cut.
func TestSplitProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	costs := simclock.DefaultCosts()
	cuts := 0
	for round := 0; round < 300; round++ {
		rp := randomRestore(rng, 1+rng.Intn(12), costs)
		for _, threads := range []int{-1, 0, 1, 2, 6, 16} {
			cut := clonePlans(rp.plans)
			Split(cut, rp.metas, threads, costs)
			checkSplit(t, fmt.Sprintf("round %d", round), rp, cut, threads, costs)
			for i := range cut {
				if len(cut[i].Reads) > len(rp.plans[i].Reads) {
					cuts++
				}
			}
		}
		free := clonePlans(rp.plans)
		Split(free, rp.metas, 6, simclock.Costs{})
		checkSplit(t, fmt.Sprintf("round %d, free store", round), rp, free, 6, simclock.Costs{})
	}
	if cuts < 300 {
		t.Fatalf("fixture: only %d reads were cut over all rounds; the properties were barely exercised", cuts)
	}
}

// FuzzReadPlan: whatever bytes claim to be a container's metadata — chunk
// records that overlap, run past the payload, repeat a fingerprint — what
// DecodeMeta accepts can be planned and split without a panic, within
// memory proportional to the input, and the split still satisfies
// checkSplit. pick seeds which chunks are needed.
func FuzzReadPlan(f *testing.F) {
	tiled := planMeta(700, 6000)
	f.Add(container.EncodeMeta(tiled), uint8(6), uint64(0xFFFF_FFFF_FFFF_FFFF))
	f.Add(container.EncodeMeta(tiled), uint8(3), uint64(0x8000_0001_0000_8001))
	v1 := container.EncodeMeta(planMeta(40, 100<<10))
	v1[4] = 1 // the retired meta version: DecodeMeta refuses it
	f.Add(v1, uint8(2), uint64(0x5555_5555_5555_5555))
	hostile := planMeta(64, 64<<10)
	hostile.Chunks[3].Offset = 1 << 31            // far past the payload
	hostile.Chunks[9].Size = 3 << 20              // overlaps everything after it
	hostile.Chunks[20].Offset = 0                 // out of order
	hostile.Chunks[21].FP = hostile.Chunks[22].FP // duplicate fingerprint
	hostile.Chunks[30].Deleted = true             // a hole
	hostile.Chunks[63].Size = ^uint32(0)          // offset + size overflows 32 bits
	f.Add(container.EncodeMeta(hostile), uint8(6), uint64(0xFFFF_FFFF_FFFF_FFFF))
	f.Add([]byte{}, uint8(0), uint64(0))

	costs := simclock.DefaultCosts()
	f.Fuzz(func(t *testing.T, data []byte, threads uint8, pick uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := container.DecodeMeta(data)
		if err != nil {
			return
		}
		need := make(map[fingerprint.FP]bool)
		for i := range m.Chunks {
			if pick>>(i%64)&1 == 1 {
				need[m.Chunks[i].FP] = true
			}
		}
		rp := restorePlans{name: "fuzz", metas: []*container.Meta{m, m}}
		p := Plan(m, need, costs)
		rp.plans = []ReadPlan{p, p} // twice: the second is planned with less left to read
		cut := clonePlans(rp.plans)
		Split(cut, rp.metas, int(threads%16), costs)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+8192); got > limit {
			t.Fatalf("planning %d bytes of metadata allocated %d, limit %d", len(data), got, limit)
		}
		checkSplit(t, "fuzz", rp, cut, int(threads%16), costs)
	})
}

// TestSplitCutsAtPartsFirst: over a payload put in parts, Split cuts every
// read where a part ends before it cuts anywhere else, as the container read
// would clip it: a lone whole read becomes pieces inside the parts, none
// across a boundary and none longer than the longest of the same payload
// in one object, one more than those at most for each cut; a whole read
// among many stays one GET per part (Reads nil); a span across a boundary
// is cut there, its chunks shared out by where they lie; and one channel
// cuts nothing.
func TestSplitCutsAtPartsFirst(t *testing.T) {
	costs := simclock.DefaultCosts()
	m := planMeta(512, 8<<10) // 4 MiB
	m.Parts = []uint32{192 * 8 << 10, 384 * 8 << 10}
	all := make(map[fingerprint.FP]bool)
	for _, cm := range m.Chunks {
		all[cm.FP] = true
	}
	inPart := func(r container.Span) bool {
		for i := 0; i < m.NumParts(); i++ {
			if off, end := m.PartRange(i); r.Off >= off && r.Off+r.Len <= end {
				return true
			}
		}
		return false
	}

	lone := []ReadPlan{Plan(m, all, costs)}
	Split(lone, []*container.Meta{m}, 6, costs)
	if len(lone[0].Reads) <= m.NumParts() {
		t.Fatalf("a lone whole read of three parts became %d reads, want more", len(lone[0].Reads))
	}
	var at int64
	for _, r := range lone[0].Reads {
		if r.Off != at || !inPart(r) || r.Chunks != nil {
			t.Fatalf("piece %+v does not continue at %d inside one part listing no chunks", r, at)
		}
		at += r.Len
	}
	if at != int64(m.DataSize) {
		t.Fatalf("pieces end at %d, payload at %d", at, m.DataSize)
	}
	one := planMeta(512, 8<<10)
	whole := []ReadPlan{Plan(one, all, costs)}
	Split(whole, []*container.Meta{one}, 6, costs)
	longest := func(reads []container.Span) (n int64) {
		for _, r := range reads {
			n = max(n, r.Len)
		}
		return n
	}
	if n, one := len(lone[0].Reads), len(whole[0].Reads); n > one+len(m.Parts) || longest(lone[0].Reads) > longest(whole[0].Reads) {
		t.Fatalf("a lone whole read of three parts became %d reads, the longest %d bytes; of one object %d, the longest %d",
			n, longest(lone[0].Reads), one, longest(whole[0].Reads))
	}

	many := make([]ReadPlan, 12)
	metas := make([]*container.Meta, len(many))
	for i := range many {
		many[i], metas[i] = Plan(m, all, costs), m
	}
	Split(many, metas, 6, costs)
	if many[0].Reads != nil {
		t.Fatalf("the first of twelve whole reads was cut: %v", many[0].Reads)
	}

	need := needOf(m, 190, 191, 192, 193) // two chunks each side of the first boundary
	ranged := []ReadPlan{Plan(m, need, costs)}
	if ranged[0].Full || len(ranged[0].Spans) != 1 {
		t.Fatalf("fixture: plan %+v, want one span", ranged[0])
	}
	for _, threads := range []int{1, 6} {
		cut := clonePlans(ranged)
		Split(cut, []*container.Meta{m}, threads, costs)
		if threads == 1 {
			if !reflect.DeepEqual(cut[0].Reads, ranged[0].Reads) {
				t.Fatalf("one channel cut %v", cut[0].Reads)
			}
			continue
		}
		want := []container.Span{{Off: 190 * 8 << 10, Len: 16 << 10, Chunks: []int{190, 191}}, {Off: 192 * 8 << 10, Len: 16 << 10, Chunks: []int{192, 193}}}
		if !reflect.DeepEqual(cut[0].Reads, want) {
			t.Fatalf("a span across a part boundary became %+v, want %+v", cut[0].Reads, want)
		}
	}
}

// TestPlanPricesParts: the planner prices each read by the requests it
// takes. A whole read of a payload in three parts costs two request
// latencies more than of the same payload in one object, and a span across
// a part boundary one more, cut there in the plan's reads.
func TestPlanPricesParts(t *testing.T) {
	costs := simclock.DefaultCosts()
	m := planMeta(512, 8<<10)
	need := needOf(m, 190, 191, 192, 193)
	one := Plan(m, need, costs)
	m.Parts = []uint32{192 * 8 << 10, 384 * 8 << 10}
	parts := Plan(m, need, costs)
	if d := parts.FullCost - one.FullCost; d != 2*costs.OSSRequestLatency {
		t.Errorf("a whole read of three parts costs %v more than of one object, want two latencies", d)
	}
	if d := parts.RangedCost - one.RangedCost; d != costs.OSSRequestLatency {
		t.Errorf("a span across a part boundary costs %v more, want one latency", d)
	}
	if len(parts.Spans) != 1 || len(parts.Reads) != 2 || parts.Reads[1].Off != int64(m.Parts[0]) {
		t.Errorf("plan %+v: want one span, read as two requests cut at %d", parts, m.Parts[0])
	}
}
