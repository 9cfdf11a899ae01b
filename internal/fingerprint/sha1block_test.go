package fingerprint

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"math/rand"
	"testing"
)

// These tests hold Of(SHA1, ·) to FIPS 180 and to crypto/sha1 whichever
// kernel is behind it (Kernel()): on a CPU with the SHA extensions they test
// sha1block_amd64.s, elsewhere and under -tags purego they pass trivially.

func TestSHA1KnownAnswers(t *testing.T) {
	t.Logf("kernel: %s", Kernel())
	for _, tc := range []struct{ name, msg, want string }{
		{"empty", "", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"448 bits", "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
			"84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
		{"896 bits", "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn" +
			"hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
			"a49b2446a02c645bf419f995b67091253a04a259"},
		{"one million a", string(bytes.Repeat([]byte{'a'}, 1000000)),
			"34aa973cd4c4daa4f61eeb2bdbad27316534016f"},
	} {
		if got := hex.EncodeToString(sha1Of([]byte(tc.msg))); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func sha1Of(data []byte) []byte {
	fp := Of(SHA1, data)
	return fp[:]
}

// TestSHA1EveryLengthAndAlignment slides every length 0–320 (five blocks,
// so every padding case on either side of the 56-byte edge, several times)
// over every source alignment 0–63 of one shared buffer: a padding mistake
// shows as a length, an aligned-load mistake as an offset.
func TestSHA1EveryLengthAndAlignment(t *testing.T) {
	buf := make([]byte, 64+320)
	rand.New(rand.NewSource(1)).Read(buf)
	for off := 0; off < 64; off++ {
		for n := 0; n <= 320; n++ {
			data := buf[off : off+n]
			if want := sha1.Sum(data); Of(SHA1, data) != want {
				t.Fatalf("offset %d length %d: %x, want %x", off, n, Of(SHA1, data), want)
			}
		}
	}
}

func TestSHA1RandomLengths(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	buf := make([]byte, 1<<20+64)
	r.Read(buf)
	for i := 0; i < 200; i++ {
		off := r.Intn(64)
		data := buf[off : off+r.Intn(1<<20+1)]
		if want := sha1.Sum(data); Of(SHA1, data) != want {
			t.Fatalf("offset %d length %d: %x, want %x", off, len(data), Of(SHA1, data), want)
		}
	}
}

func TestOfRejectsUnknownAlgorithm(t *testing.T) {
	if Algorithm(7).Valid() || !SHA1.Valid() || !SHA256.Valid() {
		t.Fatal("Valid accepts an unknown algorithm or rejects a known one")
	}
	defer func() {
		if recover() == nil {
			t.Error("Of hashed under an unknown algorithm; it must not pick one silently")
		}
	}()
	Of(Algorithm(7), []byte("x"))
}

// FuzzSHA1Kernel compares the kernel with crypto/sha1 on data read at a
// fuzzed misalignment. The seeds sit on the block and padding edges: 55 is
// the longest tail that pads within its block, 56 the shortest that needs a
// second one, 63/64 and 119/120 the same edges one block on.
func FuzzSHA1Kernel(f *testing.F) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128} {
		seed := make([]byte, n)
		for i := range seed {
			seed[i] = byte(i*7 + n)
		}
		f.Add(seed, uint8(n))
	}
	f.Fuzz(func(t *testing.T, data []byte, offset uint8) {
		off := int(offset % 64)
		buf := make([]byte, off+len(data))
		copy(buf[off:], data)
		if want := sha1.Sum(data); Of(SHA1, buf[off:]) != want {
			t.Fatalf("offset %d length %d: %x, want %x", off, len(data), Of(SHA1, buf[off:]), want)
		}
	})
}
