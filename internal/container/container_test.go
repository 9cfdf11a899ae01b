package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

func chunkOf(seed int64, n int) (fingerprint.FP, []byte) {
	r := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	r.Read(b)
	return fingerprint.OfBytes(b), b
}

func TestMetaRoundTrip(t *testing.T) {
	m := &Meta{ID: 42, DataSize: 300}
	for i := 0; i < 10; i++ {
		fp, _ := chunkOf(int64(i), 8)
		m.Chunks = append(m.Chunks, ChunkMeta{FP: fp, Offset: uint32(i * 30), Size: 30, Deleted: i%3 == 0, Sum: uint32(i * 7)})
	}
	got, err := DecodeMeta(EncodeMeta(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

// v1Meta hand-encodes m in the retired v1 layout: no per-chunk sums, no
// trailer.
func v1Meta(m *Meta) []byte {
	b := binary.LittleEndian.AppendUint32(nil, metaMagic)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.ID))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Chunks)))
	b = binary.LittleEndian.AppendUint32(b, m.DataSize)
	for _, cm := range m.Chunks {
		b = append(b, cm.FP[:]...)
		b = binary.LittleEndian.AppendUint32(b, cm.Offset)
		b = binary.LittleEndian.AppendUint32(b, cm.Size)
		b = append(b, 0)
	}
	return b
}

func TestMetaV1Rejected(t *testing.T) {
	m := &Meta{ID: 9, DataSize: 60}
	fp, _ := chunkOf(3, 8)
	m.Chunks = append(m.Chunks, ChunkMeta{FP: fp, Offset: 0, Size: 60})
	for _, version := range []uint32{0, 1, 2, 5} {
		b := v1Meta(m)
		binary.LittleEndian.PutUint32(b[4:8], version)
		_, err := DecodeMeta(b)
		if want := fmt.Sprintf("unsupported meta version %d", version); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: got %v, want an error containing %q", version, err, want)
		}
	}
}

// TestMetaRejectionsAreCorrupt: every way DecodeMeta refuses an object wraps
// ErrCorrupt, which scrub takes for damage — never for a read that failed.
func TestMetaRejectionsAreCorrupt(t *testing.T) {
	m := &Meta{ID: 5, Payload: 6, DataSize: 30}
	fp, _ := chunkOf(1, 8)
	m.Chunks = append(m.Chunks, ChunkMeta{FP: fp, Size: 30, Sum: 123})
	good := EncodeMeta(m)
	damage := map[string]func(b []byte) []byte{
		"bad magic":   func(b []byte) []byte { b[0] ^= 1; return b },
		"old version": func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:8], 2); return b },
		"too short":   func(b []byte) []byte { return b[:12] },
		"size":        func(b []byte) []byte { return b[:len(b)-1] },
		"checksum":    func(b []byte) []byte { b[30] ^= 1; return b },
	}
	for name, damage := range damage {
		if _, err := DecodeMeta(damage(bytes.Clone(good))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want an error wrapping ErrCorrupt", name, err)
		}
	}
}

func TestMetaTrailerDetectsCorruption(t *testing.T) {
	m := &Meta{ID: 5, DataSize: 30}
	fp, _ := chunkOf(1, 8)
	m.Chunks = append(m.Chunks, ChunkMeta{FP: fp, Size: 30, Sum: 123})
	b := EncodeMeta(m)
	b[30] ^= 0x01 // flip a record byte; the trailer CRC must catch it
	_, err := DecodeMeta(b)
	if err == nil {
		t.Fatal("corrupt meta accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Container != 5 {
		t.Fatalf("CorruptError should identify container 5: %v", err)
	}
}

// EncodeData frames a payload as a data object, payload plus footer, by a
// route of its own: the reference WritePayload's appended footer is held to.
func EncodeData(payload []byte) []byte {
	out := make([]byte, len(payload)+FooterSize)
	copy(out, payload)
	binary.LittleEndian.PutUint32(out[len(payload):], footerMagic)
	binary.LittleEndian.PutUint32(out[len(payload)+4:], ChecksumOf(payload))
	return out
}

func TestDataFooterRoundTrip(t *testing.T) {
	payload := []byte("hello container payload")
	raw := EncodeData(payload)
	m := &Meta{ID: 1, DataSize: uint32(len(payload))}
	got, ok := SplitData(m, raw)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("SplitData = %q, %v", got, ok)
	}
	raw[3] ^= 0xFF // payload rot → footer mismatch
	if _, ok := SplitData(m, raw); ok {
		t.Fatal("footer accepted corrupted payload")
	}
}

// TestWriteFooterAnyLayout: Write takes the footer CRC from the seal walk
// when the chunks tile the payload in order and from a separate pass over
// the payload otherwise; either way the stored data object is exactly
// EncodeData(payload), for every chunk layout and with or without footer
// headroom in the payload buffer, and the payload view is left as it was.
func TestWriteFooterAnyLayout(t *testing.T) {
	payload := make([]byte, 10000)
	rand.New(rand.NewSource(9)).Read(payload)
	span := func(off, size uint32) ChunkMeta {
		return ChunkMeta{FP: fingerprint.OfBytes(payload[off : off+size]), Offset: off, Size: size}
	}
	golden := goldenContainer()
	for _, tc := range []struct {
		name   string
		data   []byte
		chunks []ChunkMeta
		tiled  bool
	}{
		{"tiled", payload, []ChunkMeta{span(0, 4000), span(4000, 1), span(4001, 5999)}, true},
		{"golden", golden.Data, golden.Meta.Chunks, true},
		{"one chunk", payload, []ChunkMeta{span(0, 10000)}, true},
		{"empty chunk inside", payload, []ChunkMeta{span(0, 4000), span(4000, 0), span(4000, 6000)}, true},
		{"no chunks, no payload", nil, nil, true},
		{"no chunks", payload, nil, false},
		{"gap at start", payload, []ChunkMeta{span(10, 3990), span(4000, 6000)}, false},
		{"gap inside", payload, []ChunkMeta{span(0, 4000), span(4100, 5900)}, false},
		{"tail uncovered", payload, []ChunkMeta{span(0, 4000), span(4000, 5000)}, false},
		{"out of order", payload, []ChunkMeta{span(4000, 6000), span(0, 4000)}, false},
		{"overlap", payload, []ChunkMeta{span(0, 5000), span(4000, 6000)}, false},
		{"same bytes twice", payload, []ChunkMeta{span(0, 10000), span(0, 10000)}, false},
	} {
		for _, headroom := range []int{FooterSize, 0} {
			mem := oss.NewMem()
			cs, err := NewStore(mem, 0)
			if err != nil {
				t.Fatal(err)
			}
			data := append(make([]byte, 0, len(tc.data)+headroom), tc.data...)
			c := &Container{Meta: Meta{ID: 1, Chunks: append([]ChunkMeta(nil), tc.chunks...)}, Data: data}
			if _, tiled, err := c.seal(); err != nil || tiled != tc.tiled {
				t.Fatalf("%s: seal reports tiled=%v err=%v, want tiled=%v", tc.name, tiled, err, tc.tiled)
			}
			if err := cs.Write(c); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !bytes.Equal(c.Data, tc.data) {
				t.Errorf("%s/headroom %d: Write changed the payload view", tc.name, headroom)
			}
			got, err := mem.Get(DataKey(1))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, EncodeData(tc.data)) {
				t.Errorf("%s/headroom %d: data object is not EncodeData(payload)", tc.name, headroom)
			}
			for i := range c.Meta.Chunks {
				if err := c.VerifyChunk(&c.Meta.Chunks[i]); err != nil {
					t.Errorf("%s: chunk %d: %v", tc.name, i, err)
				}
			}
		}
	}
}

// Read must detect a flipped byte in live chunk data and identify the
// container and chunk in a typed error.
func TestReadDetectsCorruption(t *testing.T) {
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	cs, _ := NewStore(faulty, DefaultCapacity)
	b := NewBuilder(cs)
	fp, data := chunkOf(1, 2000)
	id, _ := b.Add(fp, data)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	faulty.CorruptReads(Prefix + id.String() + ".data")
	cs2, _ := NewStore(faulty, DefaultCapacity) // cold meta cache
	_, err := cs2.Read(id)
	if err == nil {
		t.Fatal("corrupt read went undetected")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Container != id || ce.FP != fp {
		t.Fatalf("CorruptError should identify container %s chunk %s: %v", id, fp.Short(), err)
	}

	// ReadChunk (ranged) must catch it too.
	if _, err := cs2.ReadChunk(id, fp); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadChunk: want ErrCorrupt, got %v", err)
	}

	// Clean reads still succeed.
	faulty.Clear()
	c, err := cs2.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(fp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("clean read mismatch: %v", err)
	}
}

// Corruption confined to a deleted chunk's bytes must not fail reads of
// the remaining live chunks, but the footer must still expose the rot.
func TestDeadRegionCorruptionTolerated(t *testing.T) {
	mem := oss.NewMem()
	cs, _ := NewStore(mem, DefaultCapacity)
	b := NewBuilder(cs)
	fp1, d1 := chunkOf(1, 400)
	fp2, d2 := chunkOf(2, 400)
	id, _ := b.Add(fp1, d1)
	b.Add(fp2, d2)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	m, _ := cs.ReadMeta(id)
	m.Find(fp1).Deleted = true
	if err := cs.WriteMeta(m); err != nil {
		t.Fatal(err)
	}

	// Flip a byte inside the deleted chunk's region, at rest.
	key := Prefix + id.String() + ".data"
	rotAtRest(t, mem, key, 10)

	c, err := cs.Read(id)
	if err != nil {
		t.Fatalf("dead-region rot must not fail live reads: %v", err)
	}
	got, err := c.Get(fp2)
	if err != nil || !bytes.Equal(got, d2) {
		t.Fatalf("live chunk unreadable: %v", err)
	}
	if _, footerOK, _ := cs.ReadRaw(id); footerOK {
		t.Fatal("footer must expose dead-region rot")
	}
}

// A container whose metadata is in the retired v1 layout (bare payload, no
// checksums) is refused by every read, never served unverified.
func TestV1ContainerRefused(t *testing.T) {
	mem := oss.NewMem()
	fp, data := chunkOf(7, 512)
	id := ID(1)
	m := &Meta{ID: id, DataSize: uint32(len(data)),
		Chunks: []ChunkMeta{{FP: fp, Offset: 0, Size: uint32(len(data))}}}
	mem.Put(Prefix+id.String()+".data", data)
	mem.Put(Prefix+id.String()+".meta", v1Meta(m))

	cs, err := NewStore(mem, DefaultCapacity)
	if err != nil {
		t.Fatal(err)
	}
	const want = "unsupported meta version 1"
	if _, err := cs.Read(id); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Read = %v, want an error containing %q", err, want)
	}
	if _, err := cs.ReadChunk(id, fp); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadChunk = %v, want an error containing %q", err, want)
	}
	if _, _, err := cs.ReadRaw(id); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadRaw = %v, want an error containing %q", err, want)
	}
}

func TestQuarantine(t *testing.T) {
	mem := oss.NewMem()
	cs, _ := NewStore(mem, DefaultCapacity)
	b := NewBuilder(cs)
	fp, data := chunkOf(1, 100)
	id, _ := b.Add(fp, data)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Quarantine(id); err != nil {
		t.Fatal(err)
	}
	ids, _ := cs.List()
	if len(ids) != 0 {
		t.Fatalf("quarantined container still listed: %v", ids)
	}
	qkeys, _ := mem.List(QuarantinePrefix)
	if len(qkeys) != 2 {
		t.Fatalf("quarantine keys = %v", qkeys)
	}
	if _, err := cs.Read(id); err == nil {
		t.Fatal("Read after quarantine should fail")
	}
}

func TestDecodeMetaErrors(t *testing.T) {
	if _, err := DecodeMeta([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
	good := EncodeMeta(&Meta{ID: 1})
	bad := append([]byte{}, good...)
	bad[0] ^= 0xFF
	if _, err := DecodeMeta(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	trunc := EncodeMeta(&Meta{ID: 1, Chunks: []ChunkMeta{{Size: 5}}})
	if _, err := DecodeMeta(trunc[:len(trunc)-3]); err == nil {
		t.Fatal("truncated records accepted")
	}
}

func TestMetaAccessors(t *testing.T) {
	m := &Meta{ID: 7}
	fps := make([]fingerprint.FP, 4)
	for i := range fps {
		fp, _ := chunkOf(int64(100+i), 16)
		fps[i] = fp
		m.Chunks = append(m.Chunks, ChunkMeta{FP: fp, Offset: uint32(i * 10), Size: 10, Deleted: i >= 3})
	}
	if m.LiveChunks() != 3 {
		t.Fatalf("LiveChunks = %d", m.LiveChunks())
	}
	if m.LiveBytes() != 30 {
		t.Fatalf("LiveBytes = %d", m.LiveBytes())
	}
	if sp := m.StaleProportion(); sp != 0.25 {
		t.Fatalf("StaleProportion = %f", sp)
	}
	if m.Find(fps[2]) == nil {
		t.Fatal("Find missed an existing chunk")
	}
	missing, _ := chunkOf(999, 16)
	if m.Find(missing) != nil {
		t.Fatal("Find returned a chunk for a missing fingerprint")
	}
	empty := &Meta{}
	if empty.StaleProportion() != 0 {
		t.Fatal("empty StaleProportion should be 0")
	}
}

func TestBuilderFillsAndRolls(t *testing.T) {
	mem := oss.NewMem()
	cs, err := NewStore(mem, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(cs)

	// 7 chunks of 300 bytes in a 1000-byte container → 3 per container.
	ids := make(map[ID]int)
	for i := 0; i < 7; i++ {
		fp, data := chunkOf(int64(i), 300)
		id, err := b.Add(fp, data)
		if err != nil {
			t.Fatal(err)
		}
		ids[id]++
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("chunks spread over %d containers, want 3", len(ids))
	}
	list, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("List = %v, want 3 containers", list)
	}

	// Every chunk retrievable, byte-exact.
	for i := 0; i < 7; i++ {
		fp, want := chunkOf(int64(i), 300)
		var found bool
		for id := range ids {
			c, err := cs.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := c.Get(fp); err == nil {
				if !bytes.Equal(got, want) {
					t.Fatalf("chunk %d corrupted", i)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("chunk %d not found in any container", i)
		}
	}
}

func TestBuilderOversizeChunk(t *testing.T) {
	mem := oss.NewMem()
	cs, _ := NewStore(mem, 100)
	b := NewBuilder(cs)
	fp, data := chunkOf(1, 500) // larger than capacity: gets its own container
	if _, err := b.Add(fp, data); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	ids, _ := cs.List()
	if len(ids) != 1 {
		t.Fatalf("List = %v", ids)
	}
	c, err := cs.Read(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(fp)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("oversize chunk not stored intact: %v", err)
	}
}

func TestReadChunkRange(t *testing.T) {
	mem := oss.NewMem()
	cs, _ := NewStore(mem, DefaultCapacity)
	b := NewBuilder(cs)
	var fps []fingerprint.FP
	var datas [][]byte
	var id ID
	for i := 0; i < 5; i++ {
		fp, data := chunkOf(int64(i), 1000+i)
		fps = append(fps, fp)
		datas = append(datas, data)
		id, _ = b.Add(fp, data)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		got, err := cs.ReadChunk(id, fp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, datas[i]) {
			t.Fatalf("ReadChunk %d mismatch", i)
		}
	}
	missing, _ := chunkOf(99, 8)
	if _, err := cs.ReadChunk(id, missing); err == nil {
		t.Fatal("ReadChunk of missing fingerprint should fail")
	}
}

func TestWriteMetaMarkDeleted(t *testing.T) {
	mem := oss.NewMem()
	cs, _ := NewStore(mem, DefaultCapacity)
	b := NewBuilder(cs)
	fp, data := chunkOf(1, 100)
	fp2, data2 := chunkOf(2, 100)
	id, _ := b.Add(fp, data)
	b.Add(fp2, data2)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	m, err := cs.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	m.Find(fp).Deleted = true
	if err := cs.WriteMeta(m); err != nil {
		t.Fatal(err)
	}

	// Fresh store (cold cache) sees the deletion.
	cs2, _ := NewStore(mem, DefaultCapacity)
	m2, err := cs2.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Find(fp).Deleted || m2.Find(fp2).Deleted {
		t.Fatal("deletion mark did not persist correctly")
	}
	if m2.StaleProportion() != 0.5 {
		t.Fatalf("StaleProportion = %f", m2.StaleProportion())
	}
}

func TestIDAllocationResumes(t *testing.T) {
	mem := oss.NewMem()
	cs, _ := NewStore(mem, DefaultCapacity)
	b := NewBuilder(cs)
	fp, data := chunkOf(1, 10)
	id1, _ := b.Add(fp, data)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	cs2, _ := NewStore(mem, DefaultCapacity)
	id2 := cs2.AllocateID()
	if id2 <= id1 {
		t.Fatalf("reopened store allocated %v, must exceed %v", id2, id1)
	}
}

func TestDelete(t *testing.T) {
	mem := oss.NewMem()
	cs, _ := NewStore(mem, DefaultCapacity)
	b := NewBuilder(cs)
	fp, data := chunkOf(1, 10)
	id, _ := b.Add(fp, data)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := cs.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Read(id); err == nil {
		t.Fatal("Read after Delete should fail")
	}
	ids, _ := cs.List()
	if len(ids) != 0 {
		t.Fatalf("List after delete = %v", ids)
	}
}

func TestParseKey(t *testing.T) {
	id := ID(0xabc)
	for _, k := range []string{DataKey(id), MetaKey(id)} {
		got, ok := parseKey(k)
		if !ok || got != id {
			t.Fatalf("parseKey(%q) = %v, %v", k, got, ok)
		}
	}
	for _, k := range []string{"containers/garbage", "containers/X123.meta", "other/C1.meta"} {
		if _, ok := parseKey(k); ok && k != "other/C1.meta" {
			t.Fatalf("parseKey(%q) unexpectedly ok", k)
		}
	}
}

// Property: any set of chunks written through a Builder is fully
// recoverable from the container store.
func TestQuickBuilderRecovery(t *testing.T) {
	f := func(sizes []uint16) bool {
		mem := oss.NewMem()
		cs, err := NewStore(mem, 4096)
		if err != nil {
			return false
		}
		b := NewBuilder(cs)
		type item struct {
			fp   fingerprint.FP
			data []byte
			id   ID
		}
		var items []item
		for i, sz := range sizes {
			n := int(sz)%2000 + 1
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(i + j)
			}
			// Make chunks distinct.
			copy(data, fmt.Sprintf("%d:", i))
			fp := fingerprint.OfBytes(data)
			id, err := b.Add(fp, data)
			if err != nil {
				return false
			}
			items = append(items, item{fp, data, id})
		}
		if err := b.Flush(); err != nil {
			return false
		}
		for _, it := range items {
			got, err := cs.ReadChunk(it.id, it.fp)
			if err != nil || !bytes.Equal(got, it.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentViews(t *testing.T) {
	mem := oss.NewMem()
	cs, err := NewStore(mem, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Multiple per-job views share the ID allocator and write concurrently;
	// no ID may collide and every chunk must remain retrievable.
	const workers = 6
	const perWorker = 20
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			view := cs.View(mem)
			b := NewBuilder(view)
			for i := 0; i < perWorker; i++ {
				fp, data := chunkOf(int64(w*1000+i), 8<<10)
				if _, err := b.Add(fp, data); err != nil {
					errs <- err
					return
				}
			}
			errs <- b.Flush()
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	ids, err := cs.List()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[ID]bool{}
	var chunks int
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate container ID %v", id)
		}
		seen[id] = true
		m, err := cs.ReadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		chunks += len(m.Chunks)
	}
	if chunks != workers*perWorker {
		t.Fatalf("stored %d chunks, want %d", chunks, workers*perWorker)
	}
	// Spot-check payloads across views.
	for w := 0; w < workers; w++ {
		fp, want := chunkOf(int64(w*1000), 8<<10)
		found := false
		for _, id := range ids {
			if got, err := cs.ReadChunk(id, fp); err == nil && bytes.Equal(got, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("worker %d chunk missing", w)
		}
	}
}
