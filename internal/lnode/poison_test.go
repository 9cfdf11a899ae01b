package lnode

import (
	"testing"

	"slimstore/internal/chunker"
	"slimstore/internal/fingerprint"
	"slimstore/internal/poison"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRecyclePoisons is the run-time form of the pool-lifetime rules for
// the ingest ring's three pools: whatever is held past putSlab, putBatch
// or putIngestRun — a late read, or an alias that escaped before the put —
// reads scribble to the full capacity of what was recycled, and a second
// put of a value not taken since panics. The ring twins
// (TestIngestTwinSerial, TestBackupStreamTwin, with -tags purego too) run
// with the same poison on, which is the use-after-recycle check on the
// real paths.
func TestRecyclePoisons(t *testing.T) {
	slab := getSlab(1 << 10)
	clear(slab)
	putSlab(slab[:10])
	if !poison.Filled(slab[:cap(slab)]) {
		t.Error("a slab held past putSlab does not read as poison to its capacity")
	}
	mustPanic(t, "a second putSlab", func() { putSlab(slab) })

	b := getBatch()
	b.chunks = append(b.chunks, chunker.Chunk{Offset: 7, Data: []byte("payload")}, chunker.Chunk{Offset: 14})
	b.fps = append(b.fps, fingerprint.FP{1}, fingerprint.FP{2})
	b.slab = make([]byte, 64)
	chunks, fps, attached := b.chunks, b.fps, b.slab
	b.chunks, b.fps = b.chunks[:1], b.fps[:1] // capacity, not length, is what is scribbled
	putBatch(b)
	for i := range chunks {
		if chunks[i].Data != nil || chunks[i].Offset != 0 || !poison.Filled(fps[i][:]) {
			t.Errorf("chunk %d held past putBatch reads %+v / %x", i, chunks[i], fps[i])
		}
	}
	if !poison.Filled(attached) {
		t.Error("the slab attached to a batch was recycled unpoisoned")
	}
	mustPanic(t, "a second putBatch", func() { putBatch(b) })

	n, _ := newNode(t, fastConfig())
	r := n.newIngestRun()
	r.produced = 42
	n.putIngestRun(r)
	if r.node != nil || r.produced != -1 {
		t.Errorf("a run held past putIngestRun reads node %v, produced %d", r.node, r.produced)
	}
	mustPanic(t, "a second putIngestRun", func() { n.putIngestRun(r) })
}
