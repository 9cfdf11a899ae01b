package container

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"slimstore/internal/fingerprint"
)

var update = flag.Bool("update", false, "rewrite golden files with the current encoding")

// goldenContainer builds the reference container: a fixed ID, five chunks
// of awkward sizes (including a 1-byte chunk), and one deletion mark, all
// generated from a pinned seed so the byte stream is reproducible.
func goldenContainer() *Container {
	rng := rand.New(rand.NewSource(7))
	c := &Container{Meta: Meta{ID: 0x2a}}
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

// TestGoldenContainerV2 pins the container format v2 on-disk byte layout:
// the framed data object (payload + SLMF footer) and the metadata object
// (SLMC header, per-chunk CRC32C, meta trailer checksum) must match the
// committed fixtures bit for bit. If this fails because the format
// changed deliberately, bump the wire version and regenerate with
// `go test ./internal/container/ -run Golden -update` — never relayout
// silently: on-disk containers from older runs must stay readable.
func TestGoldenContainerV2(t *testing.T) {
	c := goldenContainer()
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	encData := EncodeData(c.Data)
	encMeta := EncodeMeta(&c.Meta)

	for _, g := range []struct {
		name string
		got  []byte
	}{
		{"container_v2.data", encData},
		{"container_v2.meta", encMeta},
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
			t.Errorf("%s: encoding diverged from the pinned v2 layout: len %d want %d, first difference at byte %d",
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
	if m.ID != c.Meta.ID || len(m.Chunks) != len(c.Meta.Chunks) {
		t.Fatalf("pinned meta decoded to %+v", m)
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
}
