package container

import (
	"bytes"
	"errors"
	"testing"

	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

// buildSpanContainer writes one container of n chunks and returns the
// store, the ID, and the chunks in order.
func buildSpanContainer(t *testing.T, n, chunkBytes int) (*Store, ID, []fingerprint.FP, [][]byte) {
	t.Helper()
	cs, err := NewStore(oss.NewMem(), n*chunkBytes)
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
	if got, want := len(part.Data), 4*sz; got != want {
		t.Fatalf("partial payload %d bytes, want %d", got, want)
	}
	if cap(part.Data) != 4*sz {
		t.Fatalf("partial payload capacity %d: several spans assemble into one buffer of exactly their total, %d", cap(part.Data), 4*sz)
	}
	for _, i := range []int{3, 4, 5, 30} {
		data, err := part.Get(fps[i])
		if err != nil {
			t.Fatalf("covered chunk %d: %v", i, err)
		}
		if !bytes.Equal(data, payloads[i]) {
			t.Fatalf("covered chunk %d: payload differs", i)
		}
	}
	// Uncovered chunks must fail loudly, not silently return wrong bytes.
	if _, err := part.Get(fps[0]); err == nil {
		t.Fatal("uncovered chunk resolved from a partial container")
	}
}

// lastRange records the result of the latest GetRange.
type lastRange struct {
	oss.Store
	got []byte
}

func (l *lastRange) GetRange(key string, off, n int64) ([]byte, error) {
	b, err := l.Store.GetRange(key, off, n)
	l.got = b
	return b, err
}

// With one span there is nothing to assemble: the partial container's
// payload is the ranged read's result, not a second buffer holding a copy.
func TestReadSpansOneSpanAliasesTheRead(t *testing.T) {
	const n, sz = 16, 1024
	cs, id, fps, payloads := buildSpanContainer(t, n, sz)
	rec := &lastRange{Store: cs.oss}
	part, err := cs.View(rec).ReadSpans(id, []Span{{Off: 5 * sz, Len: 2 * sz, Chunks: []int{5, 6}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Data) != 2*sz || cap(part.Data) != 2*sz || &part.Data[0] != &rec.got[0] {
		t.Fatalf("one-span payload: len %d cap %d, aliases the read: %v; want the %d-byte read itself",
			len(part.Data), cap(part.Data), &part.Data[0] == &rec.got[0], 2*sz)
	}
	for _, i := range []int{5, 6} {
		if data, err := part.Get(fps[i]); err != nil || !bytes.Equal(data, payloads[i]) {
			t.Fatalf("covered chunk %d: %v", i, err)
		}
	}
}

func TestReadSpansVerifiesChecksums(t *testing.T) {
	const n, sz = 8, 512
	cs, id, _, _ := buildSpanContainer(t, n, sz)

	// Rot a byte inside chunk 2's payload region on the raw object.
	raw, err := cs.GetRawData(id)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw) // a fetched object is read-only
	raw[2*sz+7] ^= 0x40
	if err := cs.PutRaw(id, raw, nil); err != nil {
		t.Fatal(err)
	}

	if _, err := cs.ReadSpans(id, []Span{{Off: 2 * sz, Len: sz, Chunks: []int{2}}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rot in a fetched span: got %v, want ErrCorrupt", err)
	}
	// Rot outside the fetched spans goes unread and undetected — the
	// whole point of ranged reads is not touching those bytes.
	if _, err := cs.ReadSpans(id, []Span{{Off: 0, Len: sz, Chunks: []int{0}}}); err != nil {
		t.Fatalf("span away from the rot must verify: %v", err)
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
