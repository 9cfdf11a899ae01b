package ec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenShard builds a deterministic envelope: a fixed header over a
// seeded payload, mirroring the container v2 golden tests so the on-wire
// shard layout can never drift silently.
func goldenShard() (ShardHeader, []byte) {
	rng := rand.New(rand.NewSource(7))
	payload := make([]byte, 96)
	rng.Read(payload)
	h := ShardHeader{
		StripeID: StripeIDOf("containers/0000000000000123.data"),
		Index:    3,
		K:        4,
		M:        2,
		ObjLen:   379,
		ObjCRC:   0xDEADBEEF,
	}
	return h, payload
}

func TestGoldenShardEnvelope(t *testing.T) {
	h, payload := goldenShard()
	got := EncodeShard(h, payload)
	path := filepath.Join("testdata", "golden", "shard_v2.bin")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("shard envelope drifted from golden layout at byte %d (len got=%d want=%d)",
			firstDiff(got, want), len(got), len(want))
	}

	// The pinned bytes must also decode back to the exact header and
	// payload — guarding decoder and encoder together.
	dh, dp, err := DecodeShard(want)
	if err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if dh != h {
		t.Fatalf("golden header decodes to %+v, want %+v", dh, h)
	}
	if !bytes.Equal(dp, payload) {
		t.Fatal("golden payload mismatch")
	}
}

// TestGoldenHeaderFields pins the exact byte offsets of every header
// field, so a reordering that happens to keep CRCs consistent still
// fails.
func TestGoldenHeaderFields(t *testing.T) {
	h, payload := goldenShard()
	b := EncodeShard(h, payload)
	checks := []struct {
		name string
		off  int
		want []byte
	}{
		{"magic", 0, []byte{'S', 'L', 'E', 'S'}},
		{"version", 4, []byte{2, 0, 0, 0}},
		{"shard index", 16, []byte{3}},
		{"k", 17, []byte{4}},
		{"m", 18, []byte{2}},
		{"pad", 19, []byte{0}},
		{"objlen", 20, []byte{0x7B, 1, 0, 0, 0, 0, 0, 0}},
		{"objcrc", 28, []byte{0xEF, 0xBE, 0xAD, 0xDE}},
	}
	for _, c := range checks {
		if !bytes.Equal(b[c.off:c.off+len(c.want)], c.want) {
			t.Errorf("%s at offset %d: got % x, want % x", c.name, c.off, b[c.off:c.off+len(c.want)], c.want)
		}
	}
	if len(b) != HeaderSize+len(payload)+TrailerSize {
		t.Errorf("envelope length %d, want %d", len(b), HeaderSize+len(payload)+TrailerSize)
	}
}

// TestEnvelopeCorruptionDetected flips every byte of the envelope in turn
// and requires DecodeShard to reject each mutation (header CRC for the
// prefix, payload CRC for the body).
func TestEnvelopeCorruptionDetected(t *testing.T) {
	h, payload := goldenShard()
	good := EncodeShard(h, payload)
	if _, _, err := DecodeShard(good); err != nil {
		t.Fatalf("pristine envelope rejected: %v", err)
	}
	for i := range good {
		bad := make([]byte, len(good))
		copy(bad, good)
		bad[i] ^= 0x01
		if _, _, err := DecodeShard(bad); err == nil {
			t.Fatalf("byte flip at offset %d not detected", i)
		}
	}
	for _, n := range []int{0, 4, HeaderSize - 1, HeaderSize, HeaderSize + TrailerSize - 1} {
		if _, _, err := DecodeShard(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes not detected", n)
		}
	}
}

// TestEnvelopeV1Refused: a version-1 shard — whose object checksum was a
// CRC-32C, blind to the contents of a self-checksummed object — is refused
// by name, header CRC re-taken so nothing else is wrong with it.
func TestEnvelopeV1Refused(t *testing.T) {
	b := EncodeShard(goldenShard())
	binary.LittleEndian.PutUint32(b[4:], 1)
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(b[:32], crcTable))
	_, _, err := DecodeShard(b)
	if want := "unsupported shard envelope version 1"; !errors.Is(err, ErrEnvelope) || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want an ErrEnvelope containing %q", err, want)
	}
}

func TestStripeIDStability(t *testing.T) {
	// FNV-1a 64 is part of the on-wire format: pin known values.
	for key, want := range map[string]uint64{
		"":                  0xcbf29ce484222325,
		"a":                 0xaf63dc4c8601ec8c,
		"containers/x.data": StripeIDOf("containers/x.data"),
	} {
		if got := StripeIDOf(key); got != want {
			t.Errorf("StripeIDOf(%q) = %#x, want %#x", key, got, want)
		}
	}
	if StripeIDOf("containers/a.data") == StripeIDOf("containers/b.data") {
		t.Error("distinct keys hash to one stripe ID")
	}
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
