package cache

import (
	"container/heap"
	"math/rand"
	"strings"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/simclock"
)

// windowPhase models a restore's requests under the prefetch window and the
// gate: the containers of plans, in first-need order, enter `window` at a
// time — the first `window` at once, container i+window when the consumer
// takes container i, which it does in order as soon as i's last request
// has ended — and their requests wait for one of `channels`. A channel
// that falls free takes the longest waiting request, ties in arrival
// order (longestFirst), or the first to arrive.
func windowPhase(rp restorePlans, plans []ReadPlan, channels, window int, costs simclock.Costs, longestFirst bool) (end time.Duration, requests int) {
	type req struct {
		c      int
		n      int64
		d      time.Duration
		arrive int
	}
	n := len(plans)
	reqsOf := make([][]req, n)
	for i, p := range plans {
		reads := p.Reads
		if reads == nil {
			reads = []container.Span{{Len: int64(rp.metas[i].DataSize) + container.FooterSize}}
		}
		for _, r := range reads {
			reqsOf[i] = append(reqsOf[i], req{c: i, n: r.Len, d: readCost(costs, 1, r.Len)})
		}
		requests += len(reads)
	}
	left := make([]int, n)           // requests of container i not yet started
	done := make([]time.Duration, n) // when the last started one ends
	taken := make([]time.Duration, n)
	takenUpTo := 0 // containers [0, takenUpTo) have a take time
	settle := func() {
		for ; takenUpTo < n && left[takenUpTo] == 0; takenUpTo++ {
			taken[takenUpTo] = done[takenUpTo]
			if takenUpTo > 0 {
				taken[takenUpTo] = max(taken[takenUpTo], taken[takenUpTo-1])
			}
		}
	}
	var queue []req
	arrivals, admitted := 0, 0
	admit := func(i int) {
		for _, r := range reqsOf[i] {
			r.arrive = arrivals
			arrivals++
			queue = append(queue, r)
		}
		left[i] = len(reqsOf[i])
	}
	for ; admitted < min(window, n); admitted++ {
		admit(admitted)
	}
	settle()
	free := make(freeAt, channels)
	for started := 0; started < requests; {
		t := free[0]
		for admitted < n && admitted-window < takenUpTo && taken[admitted-window] <= t {
			admit(admitted)
			admitted++
			settle()
		}
		if len(queue) == 0 {
			// Every admitted request has started: the next admission's
			// take time is known.
			free[0] = taken[admitted-window]
			heap.Fix(&free, 0)
			continue
		}
		pick := 0
		for k := range queue {
			if longestFirst && queue[k].n > queue[pick].n {
				pick = k
			}
		}
		r := queue[pick]
		queue = append(queue[:pick], queue[pick+1:]...)
		at := t + r.d
		free[0] = at
		heap.Fix(&free, 0)
		done[r.c] = max(done[r.c], at)
		left[r.c]--
		started++
		end = max(end, at)
		settle()
	}
	return end, requests
}

// TestWindowRecordedPlans: over the twelve recorded restores of sdb-cloud,
// cut by Split at six channels, a window of twelve containers whose gate
// hands a free channel to the longest waiting request (what a restore runs)
// against the same requests issued in first-need order (what it ran
// before, and what the measured data phases match). The six latest
// restores end their modelled data phases in at most 0.92 of the time
// (524.0 → 465.1 ms): their last long read, a merged chunk of up to 2 MiB,
// no longer starts after the short ones beside it. No restore is more than
// 3 % slower, none issues another request, and the outcome repeats.
func TestWindowRecordedPlans(t *testing.T) {
	const channels, window = 6, 12
	costs := simclock.DefaultCosts()
	var before, after time.Duration
	for _, rp := range loadRecordedPlans(t) {
		cut := clonePlans(rp.plans)
		Split(cut, rp.metas, channels, costs)
		inOrder, reqIn := dataPhase(rp, cut, channels, costs, true)
		longest, reqLong := windowPhase(rp, cut, channels, window, costs, true)
		again, _ := windowPhase(rp, cut, channels, window, costs, true)
		t.Logf("%-14s %5.1f ms in order -> %5.1f ms longest first (%.3f), %d requests", rp.name,
			inOrder.Seconds()*1e3, longest.Seconds()*1e3, float64(longest)/float64(inOrder), reqLong)
		if reqLong != reqIn {
			t.Errorf("%s: %d requests in order, %d longest first", rp.name, reqIn, reqLong)
		}
		if float64(longest) > 1.03*float64(inOrder) {
			t.Errorf("%s: modelled data phase %v -> %v, want at most 1.03 of it", rp.name, inOrder, longest)
		}
		if again != longest {
			t.Errorf("%s: two runs of the model differ: %v, %v", rp.name, longest, again)
		}
		if strings.HasSuffix(rp.name, "/latest") {
			before += inOrder
			after += longest
		}
	}
	t.Logf("six latest restores: %.1f ms -> %.1f ms", before.Seconds()*1e3, after.Seconds()*1e3)
	if float64(after) > 0.92*float64(before) {
		t.Errorf("six latest restores: modelled data phase %v -> %v, want at most 0.92 of it", before, after)
	}
}

// TestWindowLongRandomRestores: a long restore (100 to 150 random
// containers) spends most of its data phase with the window full, far from
// its tail, where handing the channels to the longest reads first could
// hold back the container the consumer waits on next and stall the
// window. Against the same window served in arrival order, twenty such
// restores are no slower in sum, and none by more than 1 %.
func TestWindowLongRandomRestores(t *testing.T) {
	const channels, window = 6, 12
	costs := simclock.DefaultCosts()
	rng := rand.New(rand.NewSource(48))
	var sumIn, sumLong time.Duration
	for k := 0; k < 20; k++ {
		rp := randomRestore(rng, 100+rng.Intn(51), costs)
		Split(rp.plans, rp.metas, channels, costs)
		inOrder, _ := windowPhase(rp, rp.plans, channels, window, costs, false)
		longest, _ := windowPhase(rp, rp.plans, channels, window, costs, true)
		if float64(longest) > 1.01*float64(inOrder) {
			t.Errorf("restore %d (%d containers): %v in arrival order, %v longest first", k, len(rp.plans), inOrder, longest)
		}
		sumIn += inOrder
		sumLong += longest
	}
	t.Logf("twenty long restores: %v in arrival order, %v longest first (%.3f)", sumIn, sumLong, float64(sumLong)/float64(sumIn))
	if sumLong > sumIn {
		t.Errorf("twenty long restores: %v in arrival order, %v longest first", sumIn, sumLong)
	}
}
