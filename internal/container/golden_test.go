package container

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

var update = flag.Bool("update", false, "rewrite golden files with the current encoding")

// goldenContainer builds the reference container: a fixed ID, a payload
// stored under another (a rewritten container's), five chunks of awkward
// sizes (including a 1-byte chunk), and one deletion mark, all generated
// from a pinned seed so the byte stream is reproducible.
func goldenContainer() *Container {
	rng := rand.New(rand.NewSource(7))
	c := &Container{Meta: Meta{ID: 0x2a, Payload: 0x2b}}
	for i, n := range []int{512, 1, 4096, 33, 2048} {
		data := make([]byte, n)
		rng.Read(data)
		var fp fingerprint.FP
		rng.Read(fp[:])
		c.Meta.Chunks = append(c.Meta.Chunks, ChunkMeta{
			FP:     fp,
			Offset: uint32(len(c.Data)),
			Size:   uint32(n),
		})
		if i == 3 {
			c.Meta.Chunks[i].Deleted = true
		}
		c.Data = append(c.Data, data...)
	}
	return c
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenContainerV3 pins the container format v3 on-disk byte layout:
// the framed data object (payload + SLMF footer) and the metadata object
// (SLMC header with the payload ID, per-chunk CRC32C, meta trailer
// checksum) must match the committed fixtures bit for bit, and the v2 meta
// fixture — the same container before payload IDs — is refused by name. If
// this fails because the format changed deliberately, bump the wire version
// and regenerate with `go test ./internal/container/ -run Golden -update` —
// never relayout silently.
func TestGoldenContainerV3(t *testing.T) {
	c := goldenContainer()
	if _, _, err := c.seal(); err != nil {
		t.Fatal(err)
	}
	encData := EncodeData(c.Data)
	encMeta := EncodeMeta(&c.Meta)

	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"container_v3.data", encData},
		{"container_v3.meta", encMeta},
	} {
		p := filepath.Join("testdata", "golden", g.name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("missing golden fixture %s (regenerate with -update): %v", p, err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: encoding diverged from the pinned v3 layout: len %d want %d, first difference at byte %d",
				g.name, len(g.got), len(want), firstDiff(g.got, want))
		}
	}
	if *update {
		t.Log("golden fixtures rewritten")
		return
	}

	// The pinned bytes must also decode and verify: the fixtures double as
	// a compatibility corpus for future readers.
	m, err := DecodeMeta(encMeta)
	if err != nil {
		t.Fatalf("decode pinned meta: %v", err)
	}
	if m.ID != c.Meta.ID || m.Payload != c.Meta.Payload || len(m.Chunks) != len(c.Meta.Chunks) || m.Parts != nil || m.NumParts() != 1 {
		t.Fatalf("pinned meta decoded to %+v, want one part", m)
	}
	payload, footerOK := SplitData(m, encData)
	if !footerOK {
		t.Fatal("pinned data object fails its footer check")
	}
	rc := &Container{Meta: *m, Data: payload}
	for i := range m.Chunks {
		cm := &m.Chunks[i]
		if cm.Deleted != (i == 3) {
			t.Errorf("chunk %d: deletion mark = %v", i, cm.Deleted)
		}
		if err := rc.VerifyChunk(cm); err != nil {
			t.Errorf("chunk %d: %v", i, err)
		}
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "golden", "container_v2.meta"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMeta(v2); err == nil || !strings.Contains(err.Error(), "unsupported meta version 2") {
		t.Fatalf("a v2 meta decoded: %v", err)
	}
}

// TestGoldenContainerV4 pins the v4 layout of a payload put in parts: the
// meta is v3's with the part offsets after the header, and the part objects
// laid end to end are the one-object data object, so container_v4.data is
// that object. The pinned pair decodes, splits into its parts at the
// offsets, and reads back through a store one part per key.
func TestGoldenContainerV4(t *testing.T) {
	c := goldenV4()
	encData := EncodeData(c.Data)
	encMeta := EncodeMeta(&c.Meta)
	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"container_v4.data", encData},
		{"container_v4.meta", encMeta},
	} {
		p := filepath.Join("testdata", "golden", g.name)
		if *update {
			if err := os.WriteFile(p, g.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("missing golden fixture %s (regenerate with -update): %v", p, err)
		}
		if !bytes.Equal(g.got, want) {
			t.Errorf("%s: encoding diverged from the pinned v4 layout: len %d want %d, first difference at byte %d",
				g.name, len(g.got), len(want), firstDiff(g.got, want))
		}
	}
	if *update {
		return
	}
	m, err := DecodeMeta(encMeta)
	if err != nil {
		t.Fatalf("decode pinned meta: %v", err)
	}
	if !reflect.DeepEqual(m.Parts, c.Meta.Parts) {
		t.Fatalf("pinned meta names parts %v, want %v", m.Parts, c.Meta.Parts)
	}
	cs := storeParts(t, m, encMeta, encData)
	got, footerOK, err := cs.ReadRaw(m.ID)
	if err != nil || !footerOK {
		t.Fatalf("the pinned parts read raw: footerOK %v, %v", footerOK, err)
	}
	for i := range m.Chunks {
		if err := got.VerifyChunk(&m.Chunks[i]); err != nil {
			t.Errorf("chunk %d: %v", i, err)
		}
	}
}

// goldenV4 is goldenContainer sealed with its payload cut into three parts,
// where its third and fourth chunks start.
func goldenV4() *Container {
	c := goldenContainer()
	if _, _, err := c.seal(); err != nil {
		panic(err)
	}
	c.Meta.Parts = []uint32{c.Meta.Chunks[2].Offset, c.Meta.Chunks[3].Offset}
	return c
}

// storeParts stores a meta and the data object it was decoded beside, cut
// into m's parts, in a fresh store.
func storeParts(t *testing.T, m *Meta, meta, data []byte) *Store {
	t.Helper()
	mem := oss.NewMem()
	err := mem.Put(MetaKey(m.ID), meta)
	for i, key := range m.DataKeys() {
		off, end := m.PartRange(i)
		if i == len(m.Parts) {
			end = int64(len(data))
		}
		err = errors.Join(err, mem.Put(key, data[off:end]))
	}
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewStore(mem, 0)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// SplitData separates a raw data object — a payload's parts laid end to
// end — into payload and footer status. footerOK reports whether the
// footer magic and whole-payload CRC check out; false with a valid length
// means at-rest rot (possibly confined to deleted regions — per-chunk sums
// decide whether live data is affected).
func SplitData(m *Meta, raw []byte) (payload []byte, footerOK bool) {
	if len(raw) != int(m.DataSize)+FooterSize {
		return raw, false
	}
	payload = raw[:m.DataSize:m.DataSize]
	return payload, bytes.Equal(raw[m.DataSize:], appendFooter(make([]byte, 0, FooterSize), ChecksumOf(payload)))
}

// FuzzContainerDecode: whatever a meta and a data object hold, DecodeMeta
// and then SplitData and the verification of every chunk the meta lists
// over the pair — the data object being a payload's parts end to end —
// never panic and allocate in proportion to the input, never as a hostile
// count says; a pair that splits with its footer intact and whose chunks
// all verify reads back the same chunks through a store.
func FuzzContainerDecode(f *testing.F) {
	meta, err := os.ReadFile(filepath.Join("testdata", "golden", "container_v3.meta"))
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden", "container_v3.data"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta, data)
	f.Add(meta, data[:len(data)-1])
	f.Add(meta[:len(meta)-5], data)
	hostile := bytes.Clone(meta)
	binary.LittleEndian.PutUint32(hostile[24:], ^uint32(0)) // a chunk count no object could hold
	f.Add(hostile, data)
	f.Add([]byte{}, []byte{})
	for _, name := range []string{"container_v4.meta", "container_v4.data"} {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
		if err != nil {
			f.Fatal(err)
		}
		if name == "container_v4.meta" {
			meta = b
		} else {
			data = b
		}
	}
	f.Add(meta, data)
	f.Add(meta, data[:len(data)-9])
	f.Fuzz(func(t *testing.T, meta, data []byte) {
		var (
			m        *Meta
			verified int
		)
		boundedAlloc(t, len(meta), func() {
			var err error
			if m, err = DecodeMeta(meta); err != nil {
				m = nil
				return
			}
			payload, _ := SplitData(m, data)
			c := &Container{Meta: *m, Data: payload}
			verified = 0
			for i := range m.Chunks {
				if c.VerifyChunk(&m.Chunks[i]) == nil {
					verified++
				}
			}
		})
		if m == nil {
			return
		}
		if again, err := DecodeMeta(EncodeMeta(m)); err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("an accepted meta does not round-trip: %v", err)
		}
		if _, footerOK := SplitData(m, data); !footerOK || verified != len(m.Chunks) || m.ID == Invalid || m.Payload == Invalid {
			return
		}
		c, err := storeParts(t, m, meta, data).Read(m.ID)
		if err != nil {
			t.Fatalf("a pair that verifies does not read: %v", err)
		}
		for i := range m.Chunks {
			if cm := &m.Chunks[i]; !cm.Deleted {
				if _, err := c.ChunkData(cm); err != nil {
					t.Fatalf("chunk %d: %v", i, err)
				}
			}
		}
	})
}

// boundedAlloc runs decode over n bytes of input and fails t if it allocated
// more than in proportion to them. TotalAlloc is the process's, and a fuzz
// worker has goroutines of its own: a decode over the limit is measured
// once more, since what somebody else allocated does not land in both
// windows.
func boundedAlloc(t *testing.T, n int, decode func()) {
	got, limit := ^uint64(0), uint64(64*n+4096)
	for try := 0; try < 2 && got > limit; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decode()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if got > limit {
		t.Fatalf("decoding %d bytes allocated %d, limit %d", n, got, limit)
	}
}
