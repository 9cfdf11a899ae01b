package container

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"slimstore/internal/ec"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// buildSpanContainer writes one container of n chunks and returns the
// store, the ID, and the chunks in order.
func buildSpanContainer(t *testing.T, n, chunkBytes int) (*Store, ID, []fingerprint.FP, [][]byte) {
	t.Helper()
	return buildSpanContainerOn(t, oss.NewMem(), n, chunkBytes)
}

func buildSpanContainerOn(t *testing.T, store oss.Store, n, chunkBytes int) (*Store, ID, []fingerprint.FP, [][]byte) {
	t.Helper()
	cs, err := NewStore(store, n*chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	c := &Container{Meta: Meta{ID: cs.AllocateID()}}
	fps := make([]fingerprint.FP, n)
	payloads := make([][]byte, n)
	for i := 0; i < n; i++ {
		fp, data := chunkOf(int64(i+1), chunkBytes)
		fps[i], payloads[i] = fp, data
		c.Meta.Chunks = append(c.Meta.Chunks, ChunkMeta{FP: fp, Offset: uint32(i * chunkBytes), Size: uint32(chunkBytes)})
		c.Data = append(c.Data, data...)
	}
	if err := cs.Write(c); err != nil {
		t.Fatal(err)
	}
	return cs, c.Meta.ID, fps, payloads
}

func TestReadSpansReturnsCoveredChunks(t *testing.T) {
	const n, sz = 32, 1024
	cs, id, fps, payloads := buildSpanContainer(t, n, sz)

	// Two spans: chunks 3..5 and chunk 30.
	spans := []Span{
		{Off: 3 * sz, Len: 3 * sz, Chunks: []int{3, 4, 5}},
		{Off: 30 * sz, Len: sz, Chunks: []int{30}},
	}
	part, err := cs.ReadSpans(id, spans)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := part.Size(), int64(4*sz); got != want {
		t.Fatalf("partial payload %d bytes, want %d", got, want)
	}
	if part.Data != nil || len(part.parts) != 2 {
		t.Fatalf("two spans came back as Data of %d bytes and %d parts, want the two reads kept apart", len(part.Data), len(part.parts))
	}
	for _, i := range []int{3, 4, 5, 30} {
		data, err := part.Get(fps[i])
		if err != nil {
			t.Fatalf("covered chunk %d: %v", i, err)
		}
		if !bytes.Equal(data, payloads[i]) {
			t.Fatalf("covered chunk %d: payload differs", i)
		}
		// No remap: a covered chunk keeps the offset it has in the object.
		if cm := part.Meta.Find(fps[i]); int(cm.Offset) != i*sz {
			t.Fatalf("covered chunk %d: offset %d, want the data object's %d", i, cm.Offset, i*sz)
		}
	}
	// Uncovered chunks must fail loudly, not silently return wrong bytes —
	// neither by fingerprint nor by a record of the full metadata.
	if _, err := part.Get(fps[0]); err == nil {
		t.Fatal("uncovered chunk resolved from a partial container")
	}
	for _, i := range []int{0, 2, 6, 29, 31} {
		if _, err := part.ChunkData(&ChunkMeta{FP: fps[i], Offset: uint32(i * sz), Size: sz}); err == nil {
			t.Fatalf("chunk %d lies outside the fetched ranges and was served", i)
		}
	}
	// Nor a range that starts in one part and would end past it.
	if _, err := part.ChunkData(&ChunkMeta{Offset: 5 * sz, Size: 2 * sz}); err == nil {
		t.Fatal("a range running off the end of a part was served")
	}
}

func isRanged(op oss.Op) bool { return op.Kind == oss.KindGetRange }

// aliases reports whether data starts inside what one of reqs returned.
func aliases(reqs []oss.Request, data []byte) bool {
	for _, q := range reqs {
		for off := range q.Data {
			if &q.Data[off] == &data[0] {
				return true
			}
		}
	}
	return false
}

// Nothing is assembled: every chunk of a container read in parts, one span
// or several, is a view of the ranged read that fetched it, and the parts
// are clipped like every fetched payload.
func TestReadSpansOneSpanAliasesTheRead(t *testing.T) {
	const n, sz = 16, 1024
	cs, id, fps, payloads := buildSpanContainer(t, n, sz)
	for _, spans := range [][]Span{
		{{Off: 5 * sz, Len: 2 * sz, Chunks: []int{5, 6}}},
		{{Off: 0, Len: sz, Chunks: []int{0}}, {Off: 5 * sz, Len: 2 * sz, Chunks: []int{5, 6}}, {Off: 9 * sz, Len: sz, Chunks: []int{9}}},
	} {
		var rec oss.Recorder
		part, err := cs.View(oss.With(cs.oss, &rec)).ReadSpans(id, spans)
		if err != nil {
			t.Fatal(err)
		}
		got := rec.Requests(isRanged)
		if len(got) != len(spans) || len(part.parts) != len(spans) {
			t.Fatalf("%d spans: %d ranged reads, %d parts", len(spans), len(got), len(part.parts))
		}
		for _, p := range part.parts {
			if cap(p.data) != len(p.data) {
				t.Fatalf("part at %d has %d bytes of headroom", p.off, cap(p.data)-len(p.data))
			}
		}
		for _, sp := range spans {
			for _, i := range sp.Chunks {
				data, err := part.Get(fps[i])
				if err != nil || !bytes.Equal(data, payloads[i]) {
					t.Fatalf("covered chunk %d: %v", i, err)
				}
				if !aliases(got, data) {
					t.Fatalf("chunk %d of a %d-span read is a copy, not a view of its ranged read", i, len(spans))
				}
			}
		}
	}
}

// Spans that tile the payload are a whole read in pieces: the full
// container comes back — every chunk answered, the complete metadata, a
// deleted chunk's rot tolerated and a live chunk's caught whatever the
// spans list — exactly as from the one-GET Read.
func TestReadSpansTilingIsAWholeRead(t *testing.T) {
	const n, sz = 16, 1024
	cs, id, fps, payloads := buildSpanContainer(t, n, sz)
	tiling := []Span{{Off: 0, Len: 5 * sz}, {Off: 5 * sz, Len: 7 * sz}, {Off: 12 * sz, Len: 4 * sz}}
	whole, err := cs.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cs.ReadSpans(id, tiling)
	if err != nil {
		t.Fatal(err)
	}
	if same := reflect.DeepEqual(c.Meta, whole.Meta); c.Size() != whole.Size() || !same || c.Data != nil {
		t.Fatalf("tiling read: %d bytes, same metadata %v, Data %d bytes; want the %d-byte container in parts",
			c.Size(), same, len(c.Data), whole.Size())
	}
	for i := range fps {
		if data, err := c.Get(fps[i]); err != nil || !bytes.Equal(data, payloads[i]) {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	// One span short of the payload's end is a partial read again.
	if c, err := cs.ReadSpans(id, tiling[:2]); err != nil || len(c.Meta.Chunks) != 0 {
		t.Fatalf("two of three tiles listing no chunks: %v, %d chunks", err, len(c.Meta.Chunks))
	}

	rot := func(i int, deleted bool) {
		t.Helper()
		m, err := cs.ReadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		cp := *m
		cp.Chunks = append([]ChunkMeta(nil), m.Chunks...)
		cp.Chunks[i].Deleted = deleted
		if err := cs.WriteMeta(&cp); err != nil {
			t.Fatal(err)
		}
		rotPayload(t, cs, id, i*sz+3)
	}
	rot(7, true)
	if _, err := cs.ReadSpans(id, tiling); err != nil {
		t.Fatalf("rot in a deleted chunk failed a whole read in pieces: %v", err)
	}
	rot(13, false)
	if _, err := cs.ReadSpans(id, tiling); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rot in a live chunk no span lists: got %v, want ErrCorrupt", err)
	}
	if _, err := cs.Read(id); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("the one-GET read of the same object: got %v, want ErrCorrupt", err)
	}
}

// rotPayload flips the byte at off of a container's data object at rest.
func rotPayload(t *testing.T, cs *Store, id ID, off int) {
	t.Helper()
	m, err := cs.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cs.oss.Get(DataKey(m.Payload))
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw) // a fetched object is read-only
	raw[off] ^= 0x10
	if err := cs.oss.Put(DataKey(m.Payload), raw); err != nil {
		t.Fatal(err)
	}
}

var errInjected = errors.New("injected read failure")

// failNth fails the k-th ranged read to reach it, or hands it on a byte
// short.
func failNth(k int64, short bool) oss.Layer {
	var seen atomic.Int64
	return oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if isRanged(op) && seen.Add(1)-1 == k {
			if !short {
				return op, errInjected
			}
			op.N--
		}
		return oss.Do(next, op)
	})
}

// The requests of one read run side by side, at most the gate's width at
// once however many views' callers share the gate, and an ungated view
// issues them one after another on the caller.
func TestGatedReadSpansOverlapsUpToTheGate(t *testing.T) {
	const n, sz, width = 16, 1024, 3
	cs, id, _, _ := buildSpanContainer(t, n, sz)
	spans := make([]Span, 6)
	for i := range spans {
		spans[i] = Span{Off: int64(2 * i * sz), Len: sz, Chunks: []int{2 * i}}
	}
	// Every ranged read is held until `width` of them wait together — a read
	// whose requests went out one at a time never gets past the first.
	var rec oss.Recorder
	var bar oss.Barrier
	bar.Expect(isRanged, width, width, width, width)
	gated := cs.View(oss.With(cs.oss, &rec, &bar)).Gated(width)
	// Two reads at once through one gate: six requests each, three tokens.
	errs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		go func() {
			_, err := gated.ReadSpans(id, spans)
			errs <- err
		}()
	}
	for r := 0; r < 2; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := bar.Err(); err != nil {
		t.Fatal(err)
	}
	if _, high := rec.InFlight(nil); high != width {
		t.Fatalf("%d requests in flight at the high-water mark, want exactly the gate's %d", high, width)
	}

	rec.Take()
	if _, err := cs.View(oss.With(cs.oss, &rec)).ReadSpans(id, spans); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.View(oss.With(cs.oss, &rec)).Gated(1).Read(id); err != nil {
		t.Fatal(err)
	}
	if _, high := rec.InFlight(nil); high != 1 {
		t.Fatalf("ungated and width-1 views had %d requests in flight, want 1", high)
	}
}

// A failed or short piece fails the whole read, naming the container and
// the byte range, whichever piece it is; nothing is returned, and every
// request issued has come back by then (the recorder would otherwise
// still count it in flight).
func TestGatedReadSpansFailsWholeOnAnyPiece(t *testing.T) {
	const n, sz, width = 16, 1024, 4
	cs, id, _, _ := buildSpanContainer(t, n, sz)
	tiling := []Span{{Off: 0, Len: 4 * sz}, {Off: 4 * sz, Len: 4 * sz}, {Off: 8 * sz, Len: 4 * sz}, {Off: 12 * sz, Len: 4 * sz}}
	for _, short := range []bool{false, true} {
		for k := range tiling {
			var rec oss.Recorder
			var bar oss.Barrier
			bar.Expect(isRanged, width)
			c, err := cs.View(oss.With(cs.oss, &rec, &bar, failNth(int64(k), short))).Gated(width).ReadSpans(id, tiling)
			if err == nil || c != nil {
				t.Fatalf("piece %d (short=%v): read succeeded", k, short)
			}
			if short != errors.Is(err, ErrCorrupt) || short == errors.Is(err, errInjected) {
				t.Fatalf("piece %d (short=%v): %v", k, short, err)
			}
			if msg := err.Error(); !strings.Contains(msg, id.String()) || !strings.Contains(msg, fmt.Sprintf(",+%d)", 4*sz)) {
				t.Fatalf("piece %d (short=%v): error %q does not name the container and the range", k, short, msg)
			}
			if n, _ := rec.InFlight(nil); n != 0 || bar.Err() != nil {
				t.Fatalf("piece %d (short=%v): %d requests still in flight after the read returned (%v)", k, short, n, bar.Err())
			}
		}
	}
}

func TestReadSpansVerifiesChecksums(t *testing.T) {
	const n, sz = 8, 512
	cs, id, _, _ := buildSpanContainer(t, n, sz)

	// Rot a byte inside chunk 2's payload region on the raw object.
	rotPayload(t, cs, id, 2*sz+7)

	if _, err := cs.ReadSpans(id, []Span{{Off: 2 * sz, Len: sz, Chunks: []int{2}}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rot in a fetched span: got %v, want ErrCorrupt", err)
	}
	// Rot outside the fetched spans goes unread and undetected — the
	// whole point of ranged reads is not touching those bytes.
	if _, err := cs.ReadSpans(id, []Span{{Off: 0, Len: sz, Chunks: []int{0}}}); err != nil {
		t.Fatalf("span away from the rot must verify: %v", err)
	}
}

// TestReadSpansOverRottedShard: over the striped tier a ranged read is
// served from the covering shard as it lies — the tier cannot check part of
// a shard against the shard's checksum — so a rotted shard shows up here, as
// a chunk that fails to verify. That is rot within the tier's redundancy,
// and the read must not fail on it: the whole read reconstructs around the
// shard. That holds for a few spans and for spans that tile the payload (a
// whole container read in pieces, as a cut restore reads it), which must
// come back as the full container, every chunk exact.
func TestReadSpansOverRottedShard(t *testing.T) {
	const n, sz = 8, 512
	mem := oss.NewMem()
	tier, err := ec.NewStore(oss.NewBackendSet(mem, 3, simclock.DefaultCosts()), 2, 1, simclock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	cs, id, fps, payloads := buildSpanContainerOn(t, ec.NewRouter(tier, mem, ".data", Prefix), n, sz)
	shard := oss.BackendPrefix(0) + DataKey(id)
	raw, err := mem.Get(shard)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw) // a fetched object is read-only
	raw[ec.HeaderSize+sz+7] ^= 0x40
	if err := mem.Put(shard, raw); err != nil {
		t.Fatal(err)
	}
	c, err := cs.ReadSpans(id, []Span{{Off: sz, Len: sz, Chunks: []int{1}}})
	if err != nil {
		t.Fatalf("ranged read over a rotted shard: %v", err)
	}
	if got, err := c.Get(fps[1]); err != nil || !bytes.Equal(got, payloads[1]) {
		t.Fatalf("chunk 1 after the fallback: %v", err)
	}

	tiling := []Span{{Off: 0, Len: 3 * sz}, {Off: 3 * sz, Len: 3 * sz}, {Off: 6 * sz, Len: 2 * sz}}
	c, err = cs.ReadSpans(id, tiling)
	if err != nil {
		t.Fatalf("pieces tiling the payload over a rotted shard: %v", err)
	}
	if c.Data == nil || len(c.Meta.Chunks) != n {
		t.Fatalf("pieces over a rotted shard: got %d chunks, whole read %v; want the full container from the whole read", len(c.Meta.Chunks), c.Data != nil)
	}
	for i, fp := range fps {
		if got, err := c.Get(fp); err != nil || !bytes.Equal(got, payloads[i]) {
			t.Fatalf("chunk %d of the pieces' fallback: %v", i, err)
		}
	}
}

func TestReadSpansRejectsOutOfBounds(t *testing.T) {
	const n, sz = 4, 256
	cs, id, _, _ := buildSpanContainer(t, n, sz)
	cases := []Span{
		{Off: -1, Len: sz, Chunks: []int{0}},
		{Off: 0, Len: 0, Chunks: nil},
		{Off: int64(n*sz) - 10, Len: 20, Chunks: nil}, // runs past the payload into the footer
		{Off: 0, Len: sz, Chunks: []int{2}},           // chunk escapes its span
		{Off: 0, Len: sz, Chunks: []int{99}},          // bogus index
	}
	// Spans out of order or overlapping: ChunkData searches them by offset.
	for _, spans := range [][]Span{
		{{Off: 2 * sz, Len: sz, Chunks: []int{2}}, {Off: 0, Len: sz, Chunks: []int{0}}},
		{{Off: 0, Len: 2 * sz, Chunks: []int{0}}, {Off: sz, Len: sz, Chunks: []int{1}}},
	} {
		if _, err := cs.ReadSpans(id, spans); err == nil {
			t.Errorf("accepted span list %+v", spans)
		}
	}
	for i, sp := range cases {
		if _, err := cs.ReadSpans(id, []Span{sp}); err == nil {
			t.Errorf("case %d (%+v): accepted invalid span", i, sp)
		}
	}
}

func TestOnInvalidateFires(t *testing.T) {
	cs, id, _, _ := buildSpanContainer(t, 4, 128)
	var events []ID
	cs.OnInvalidate(func(id ID) { events = append(events, id) })

	m, err := cs.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	cp := *m
	cp.Chunks = append([]ChunkMeta(nil), m.Chunks...)
	cp.Chunks[0].Deleted = true
	if err := cs.WriteMeta(&cp); err != nil {
		t.Fatal(err)
	}
	cs.InvalidateMeta(id)
	if err := cs.Delete(id); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("got %d invalidation events (%v), want 3 (WriteMeta, InvalidateMeta, Delete)", len(events), events)
	}
	for _, got := range events {
		if got != id {
			t.Fatalf("invalidation for %s, want %s", got, id)
		}
	}
}

// TestReadMetaRacingAWriteCachesNothing: a meta read that fetched the old
// object while a write replaced it, or a delete removed it, does not
// install what it fetched over the change: the next read sees the change.
func TestReadMetaRacingAWriteCachesNothing(t *testing.T) {
	for _, del := range []bool{false, true} {
		var cs *Store
		var armed atomic.Bool
		var changeErr error
		store := oss.With(oss.NewMem(), oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
			op, err := oss.Do(next, op)
			if op.Kind == oss.KindGet && strings.HasSuffix(op.Key, ".meta") && armed.CompareAndSwap(true, false) {
				m, _ := DecodeMeta(op.Data)
				if m.Chunks[0].Deleted = true; del {
					changeErr = cs.Delete(m.ID)
				} else {
					changeErr = cs.WriteMeta(m)
				}
			}
			return op, err
		}))
		cs, id, _, _ := buildSpanContainerOn(t, store, 4, 128)
		cs.InvalidateMeta(id)
		armed.Store(true)
		if m, err := cs.ReadMeta(id); err != nil || m.Chunks[0].Deleted {
			t.Fatalf("delete=%v: the racing read: %v, %+v", del, err, m)
		}
		if changeErr != nil {
			t.Fatal(changeErr)
		}
		m, err := cs.ReadMeta(id)
		if del && !errors.Is(err, oss.ErrNotFound) || !del && (err != nil || !m.Chunks[0].Deleted) {
			t.Errorf("delete=%v: the read after the change: %v, %+v (a stale meta was cached)", del, err, m)
		}
	}
}

// TestWriteMetaCachesWhatItWrote: a meta write installs its meta whatever
// other writes run beside it. Each goroutine owns one ID (all equal mod
// 256), caches the stored meta, then writes versions and reads each back;
// a write whose install gave way to another's would leave the older meta
// cached.
func TestWriteMetaCachesWhatItWrote(t *testing.T) {
	cs, err := NewStore(oss.NewMem(), 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 8, 2000
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		id := ID(1 + 256*w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cs.WriteMeta(&Meta{ID: id, Payload: 0}); err != nil {
				errs <- err
				return
			}
			cs.InvalidateMeta(id)
			for v := ID(1); v <= rounds; v++ {
				if _, err := cs.ReadMeta(id); err != nil {
					errs <- err
					return
				}
				if err := cs.WriteMeta(&Meta{ID: id, Payload: v}); err != nil {
					errs <- err
					return
				}
				if m, err := cs.ReadMeta(id); err != nil || m.Payload != v {
					errs <- fmt.Errorf("container %s: wrote payload %s, read back %+v, %v", id, v, m, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
