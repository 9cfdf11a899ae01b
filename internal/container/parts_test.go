package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// writeLB is L·B_w under the default costs: what SplitWrites is given.
func writeLB() int64 {
	c := simclock.DefaultCosts()
	return int64(c.OSSRequestLatency.Seconds() * c.OSSWriteBandwidth)
}

// TestPiecesAtDefaultCosts pins the piece-count rule at the write
// bandwidth: one part below 4·L·B_w (~819 KiB), two up to 12·L·B_w
// (~2.4 MiB), three for a full 4 MiB container — and one whenever the
// model prices no latency.
func TestPiecesAtDefaultCosts(t *testing.T) {
	lb := writeLB()
	for _, tc := range []struct {
		n    int64
		want int
	}{
		{0, 1}, {4*lb - 1, 1}, {4 * lb, 2}, {12*lb - 1, 2}, {12 * lb, 3}, {DefaultCapacity, 3}, {24 * lb, 4},
	} {
		if got := Pieces(tc.n, lb); got != tc.want {
			t.Errorf("Pieces(%d, %d) = %d, want %d", tc.n, lb, got, tc.want)
		}
	}
	if got := Pieces(DefaultCapacity, 0); got != 1 {
		t.Errorf("Pieces at a free store = %d, want 1", got)
	}
}

// partsContainer stores n chunks of sz bytes as one container whose payload
// is cut into k parts near k-ths over store, and returns the container
// store, its meta and the chunks' bytes. Its objects are put directly, as a
// reader may meet them: WritePayload puts at most maxParts.
func partsContainer(t *testing.T, store oss.Store, n, sz, k int) (*Store, *Meta, [][]byte) {
	t.Helper()
	c := &Container{Meta: Meta{ID: 1, Payload: 1}}
	chunks := make([][]byte, n)
	for i := range chunks {
		fp, data := chunkOf(int64(100+i), sz)
		chunks[i] = data
		c.Meta.Chunks = append(c.Meta.Chunks, ChunkMeta{FP: fp, Offset: uint32(i * sz), Size: uint32(sz)})
		c.Data = append(c.Data, data...)
	}
	if _, _, err := c.seal(); err != nil {
		t.Fatal(err)
	}
	m := &c.Meta
	for _, sp := range CutSpan(m, Span{Len: int64(len(c.Data)), Chunks: InOffsetOrder(m, false)}, k, 0)[1:] {
		m.Parts = append(m.Parts, uint32(sp.Off))
	}
	if len(m.Parts) != k-1 {
		t.Fatalf("fixture: %d parts, want %d", m.NumParts(), k)
	}
	data := EncodeData(c.Data)
	err := store.Put(MetaKey(m.ID), EncodeMeta(m))
	for i, key := range m.DataKeys() {
		off, end := m.PartRange(i)
		if i == len(m.Parts) {
			end = int64(len(data))
		}
		err = errors.Join(err, store.Put(key, data[off:end]))
	}
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewStore(store, n*sz)
	if err != nil {
		t.Fatal(err)
	}
	return cs, m, chunks
}

// TestPartsLayout: a payload put in parts is cut on chunk boundaries near
// thirds, its part objects laid end to end are the one-object encoding
// byte for byte, and its meta — v4 — decodes to the same parts.
func TestPartsLayout(t *testing.T) {
	mem := oss.NewMem()
	_, m, chunks := partsContainer(t, mem, 12, 1000, 3)
	if want := []uint32{4000, 8000}; fmt.Sprint(m.Parts) != fmt.Sprint(want) {
		t.Fatalf("parts start at %v, want %v", m.Parts, want)
	}
	var joined []byte
	for _, k := range m.DataKeys() {
		raw, err := mem.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		joined = append(joined, raw...)
	}
	if want := EncodeData(bytes.Join(chunks, nil)); !bytes.Equal(joined, want) {
		t.Fatal("the parts end to end are not the one-object data object")
	}
	raw, err := mem.Get(MetaKey(m.ID))
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != MetaV4 {
		t.Fatalf("meta version %d, want %d", v, MetaV4)
	}
	got, err := DecodeMeta(raw)
	if err != nil || fmt.Sprint(got.Parts) != fmt.Sprint(m.Parts) {
		t.Fatalf("decoded parts %v, %v; want %v", got.Parts, err, m.Parts)
	}
	if keys := m.DataKeys(); keys[0] != DataKey(m.Payload) || !strings.HasSuffix(keys[2], ".2.data") {
		t.Fatalf("part keys %v", keys)
	}
}

// TestReadSpansClipsAtParts: a whole read of a payload in parts is one GET
// per part, held as parts without a join copy; a span across a part
// boundary is one ranged read in each part, at the part's own offsets; and
// ReadRaw checks the footer over the parts in order.
func TestReadSpansClipsAtParts(t *testing.T) {
	var rec oss.Recorder
	mem := oss.NewMem()
	cs, m, chunks := partsContainer(t, oss.With(mem, &rec), 12, 1000, 3)
	if _, err := cs.ReadMeta(m.ID); err != nil { // cached: what follows counts data requests
		t.Fatal(err)
	}
	rec.Take()
	c, err := cs.Read(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	reqs := rec.Take()
	if len(reqs) != 3 || c.Data != nil || c.Size() != 12000 {
		t.Fatalf("whole read: %d requests, Data %d bytes, %d held; want 3 GETs into parts of 12000", len(reqs), len(c.Data), c.Size())
	}
	for i, q := range reqs {
		if q.Kind != oss.KindGet || !strings.HasSuffix(q.Key, ".data") {
			t.Fatalf("request %d: %s", i, q.Op)
		}
	}
	for i := range m.Chunks {
		if got, err := c.ChunkData(&m.Chunks[i]); err != nil || !bytes.Equal(got, chunks[i]) {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}

	sp := Span{Off: 3000, Len: 2000, Chunks: []int{3, 4}} // chunk 3 ends part 0, chunk 4 starts part 1
	c, err = cs.ReadSpans(m.ID, []Span{sp})
	if err != nil {
		t.Fatal(err)
	}
	reqs = rec.Take()
	want := []string{
		fmt.Sprintf("getrange %s [3000,+1000)", PartKey(m.Payload, 0)),
		fmt.Sprintf("getrange %s [0,+1000)", PartKey(m.Payload, 1)),
	}
	if len(reqs) != 2 || reqs[0].Op.String() != want[0] || reqs[1].Op.String() != want[1] {
		t.Fatalf("a span across a part boundary issued %v, want %v", reqs, want)
	}
	for _, i := range sp.Chunks {
		if got, err := c.ChunkData(&m.Chunks[i]); err != nil || !bytes.Equal(got, chunks[i]) {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}

	if _, footerOK, err := cs.ReadRaw(m.ID); err != nil || !footerOK {
		t.Fatalf("ReadRaw: footerOK %v, %v", footerOK, err)
	}
	// Rot in the middle part: the live chunk it hits fails a read, and the
	// footer over the parts in order fails ReadRaw.
	raw, err := mem.Get(PartKey(m.Payload, 1))
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw)
	raw[1500] ^= 0xFF // chunk 5
	if err := mem.Put(PartKey(m.Payload, 1), raw); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := cs.Read(m.ID); !errors.As(err, &ce) || ce.FP != m.Chunks[5].FP {
		t.Fatalf("read over a rotten part: %v, want chunk 5 corrupt", err)
	}
	if _, footerOK, err := cs.ReadRaw(m.ID); err != nil || footerOK {
		t.Fatalf("ReadRaw over a rotten part: footerOK %v, %v", footerOK, err)
	}
	if err := mem.Delete(PartKey(m.Payload, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Read(m.ID); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("read with a part missing: %v, want not found", err)
	}
}

// TestPartsLeaveTogether: Delete, Quarantine and the orphan sweep each
// cover every part of a payload: Scan names a payload once however many
// parts it has, and DropOrphan reclaims whichever parts a crash left.
func TestPartsLeaveTogether(t *testing.T) {
	keys := func(mem *oss.Mem, prefix string) []string {
		k, err := mem.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	t.Run("delete", func(t *testing.T) {
		mem := oss.NewMem()
		cs, m, _ := partsContainer(t, mem, 6, 500, 3)
		if err := cs.Delete(m.ID); err != nil {
			t.Fatal(err)
		}
		if left := keys(mem, ""); len(left) != 0 {
			t.Fatalf("left %v", left)
		}
	})
	t.Run("quarantine", func(t *testing.T) {
		mem := oss.NewMem()
		cs, m, _ := partsContainer(t, mem, 6, 500, 3)
		if err := cs.Quarantine(m.ID); err != nil {
			t.Fatal(err)
		}
		if left := keys(mem, Prefix); len(left) != 0 {
			t.Fatalf("live namespace keeps %v", left)
		}
		id := m.ID.String()
		want := []string{QuarantinePrefix + id + ".1.data", QuarantinePrefix + id + ".2.data", QuarantinePrefix + id + ".data", QuarantinePrefix + id + ".meta"}
		if got := keys(mem, QuarantinePrefix); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("quarantined %v, want %v", got, want)
		}
	})
	t.Run("orphan", func(t *testing.T) {
		mem := oss.NewMem()
		cs, m, _ := partsContainer(t, mem, 6, 500, 3)
		// A crash that cut a payload's puts: its meta never landed, nor its
		// first part.
		if err := errors.Join(mem.Delete(MetaKey(m.ID)), mem.Delete(PartKey(m.Payload, 0))); err != nil {
			t.Fatal(err)
		}
		cs.InvalidateMeta(m.ID)
		live, payloads, err := cs.Scan()
		if err != nil || len(live) != 0 || fmt.Sprint(payloads) != fmt.Sprint([]ID{m.Payload}) {
			t.Fatalf("Scan = %v, %v, %v; want no container and payload %s once", live, payloads, err, m.Payload)
		}
		size, err := cs.DropOrphan(m.Payload)
		if err != nil || size != 2000+FooterSize {
			t.Fatalf("DropOrphan = %d, %v; want the two parts left, %d bytes", size, err, 2000+FooterSize)
		}
		if left := keys(mem, ""); len(left) != 0 {
			t.Fatalf("left %v", left)
		}
	})
}

// TestPackPoolPutsParts: a pool over a store that splits writes puts a
// payload of at least 12·L·B_w as two parts — three by the rule, two by
// the cap — whether sealed mid-stream or by a builder's final Flush, side
// by side: the final one's two puts wait at a barrier until both are in
// flight. A payload under 4·L·B_w is one object, under the key and with
// the bytes a store that never splits writes. The parts end to end are
// always the one-object bytes.
func TestPackPoolPutsParts(t *testing.T) {
	lb := writeLB()
	bar := oss.Barrier{Timeout: 5 * time.Second}
	mem := oss.NewMem()
	cs, err := NewStore(oss.With(mem, &bar), int(13*lb))
	if err != nil {
		t.Fatal(err)
	}
	cs.SplitWrites(lb)
	pool := NewPackPoolBudget(cs, 2, 0)
	small := &Container{Meta: Meta{ID: cs.AllocateID()}}
	fp, data := chunkOf(1, int(4*lb)-1) // under 4·L·B_w
	small.Meta.Chunks, small.Data = []ChunkMeta{{FP: fp, Size: uint32(len(data))}}, data
	want := map[ID][]byte{small.Meta.ID: EncodeData(data)}
	pool.Write(small)
	b := NewBuilderAsync(cs, pool)
	for i := 0; i < int(13*lb)/4096+int(12*lb+4095)/4096; i++ { // a full container mid-stream, then 12·L·B_w at the end
		fp, data := chunkOf(int64(100+i), 4096)
		id, err := b.Add(fp, data)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = append(want[id], data...)
	}
	last := cs.AllocateIDs(0) - 1 // the ID the builder's open container took
	bar.Expect(func(op oss.Op) bool { return op.Kind == oss.KindPut && strings.Contains(op.Key, last.String()) }, maxParts)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	metas, err := pool.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := bar.Err(); err != nil {
		t.Fatalf("the final payload's parts were not put together: %v", err)
	}
	parts := map[ID]int{small.Meta.ID: 1, last - 1: maxParts, last: maxParts}
	for _, m := range metas {
		var joined []byte
		for _, k := range m.DataKeys() {
			raw, err := mem.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			joined = append(joined, raw...)
		}
		if w := want[m.ID]; m.ID != small.Meta.ID {
			want[m.ID] = EncodeData(w)
		}
		if m.NumParts() != parts[m.ID] || !bytes.Equal(joined, want[m.ID]) {
			t.Fatalf("payload %s: %d parts at %v, want %d; bytes equal to the one-object encoding: %v",
				m.ID, m.NumParts(), m.Parts, parts[m.ID], bytes.Equal(joined, want[m.ID]))
		}
	}
	if len(metas) != 3 {
		t.Fatalf("%d payloads put, want 3", len(metas))
	}
	if got, err := mem.Get(DataKey(small.Meta.ID)); err != nil || !bytes.Equal(got, EncodeData(data)) {
		t.Fatalf("the small payload is not the one object at %s: %v", DataKey(small.Meta.ID), err)
	}
}

// TestMetaV4Refusals: a v4 meta is refused as corrupt when its part offsets
// are out of order, run to or past the payload's end, cut through a chunk,
// or name a single part.
func TestMetaV4Refusals(t *testing.T) {
	base := func() *Meta {
		m := &Meta{ID: 3, Payload: 3, DataSize: 300, Parts: []uint32{100, 200}}
		for i := 0; i < 3; i++ {
			fp, _ := chunkOf(int64(i), 8)
			m.Chunks = append(m.Chunks, ChunkMeta{FP: fp, Offset: uint32(i * 100), Size: 100})
		}
		return m
	}
	if m, err := DecodeMeta(EncodeMeta(base())); err != nil || len(m.Parts) != 2 {
		t.Fatalf("fixture: %v, %v", m, err)
	}
	for name, parts := range map[string][]uint32{
		"out of order":    {200, 100},
		"repeated":        {100, 100},
		"at zero":         {0, 100},
		"at the end":      {100, 300},
		"past the end":    {100, 400},
		"through a chunk": {100, 150},
	} {
		m := base()
		m.Parts = parts
		if _, err := DecodeMeta(EncodeMeta(m)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", name, err)
		}
	}
	// A v4 meta naming one part: the v3 encoding relabelled, trailer redone.
	m := base()
	m.Parts = nil
	b := EncodeMeta(m)
	b = append(append(append([]byte(nil), b[:metaHeader]...), 0, 0, 0, 0), b[metaHeader:len(b)-4]...)
	binary.LittleEndian.PutUint32(b[4:], MetaV4)
	b = binary.LittleEndian.AppendUint32(b, ChecksumOf(b))
	if _, err := DecodeMeta(b); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "one part") {
		t.Errorf("a v4 meta of one part: %v, want ErrCorrupt", err)
	}
}
