package fingerprint

import (
	"crypto/sha1"
	"fmt"
	"testing"
	"testing/quick"
)

func TestOfDeterministicAndDistinct(t *testing.T) {
	a := OfBytes([]byte("hello"))
	b := OfBytes([]byte("hello"))
	c := OfBytes([]byte("hellp"))
	if a != b {
		t.Fatal("same content produced different fingerprints")
	}
	if a == c {
		t.Fatal("different content produced equal fingerprints")
	}
	if a.IsZero() {
		t.Fatal("real fingerprint reported zero")
	}
	var zero FP
	if !zero.IsZero() {
		t.Fatal("zero fingerprint not recognised")
	}
}

func TestAlgorithms(t *testing.T) {
	data := []byte("some chunk payload")
	s1 := Of(SHA1, data)
	s256 := Of(SHA256, data)
	if s1 == s256 {
		t.Fatal("SHA1 and SHA256 fingerprints collide on same input")
	}
	if SHA1.String() != "sha1" || SHA256.String() != "sha256" {
		t.Fatalf("algorithm names: %s, %s", SHA1, SHA256)
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm has empty name")
	}
}

func TestParseRoundTrip(t *testing.T) {
	fp := OfBytes([]byte("x"))
	got, err := Parse(fp.String())
	if err != nil || got != fp {
		t.Fatalf("Parse(String) = %v, %v", got, err)
	}
	if _, err := Parse("zz"); err == nil {
		t.Fatal("bad hex accepted")
	}
	if _, err := Parse("abcd"); err == nil {
		t.Fatal("short hex accepted")
	}
	if len(fp.Short()) != 8 {
		t.Fatalf("Short() = %q", fp.Short())
	}
}

func TestSampler(t *testing.T) {
	// R rounds down to a power of two; R<1 clamps to 1.
	if NewSampler(0) != NewSampler(1) {
		t.Fatal("R=0 is not R=1")
	}
	if NewSampler(33) != NewSampler(32) {
		t.Fatal("R=33 is not R=32")
	}
	// R=1 samples everything.
	all := NewSampler(1)
	for i := 0; i < 100; i++ {
		if !all.Sample(OfBytes([]byte{byte(i)})) {
			t.Fatal("R=1 sampler rejected a fingerprint")
		}
	}
	// R=16 samples ~1/16 of random fingerprints.
	s := NewSampler(16)
	n := 0
	const total = 1 << 14
	for i := 0; i < total; i++ {
		if s.Sample(OfBytes([]byte{byte(i), byte(i >> 8), 7})) {
			n++
		}
	}
	want := total / 16
	if n < want/2 || n > want*2 {
		t.Fatalf("sampled %d of %d, want ≈%d", n, total, want)
	}
}

// Property: fingerprinting is injective-in-practice and stable.
func TestQuickFingerprint(t *testing.T) {
	seen := map[FP]string{}
	f := func(data []byte) bool {
		fp := OfBytes(data)
		if prev, ok := seen[fp]; ok {
			return prev == string(data)
		}
		seen[fp] = string(data)
		return fp == OfBytes(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFingerprint measures chunk hashing at the two deployed sizes:
// the 4 KiB average chunk and a 64 KiB superchunk. SHA-1 runs once per
// kernel — what Of dispatches to on this host (Kernel()) and, when that is
// not crypto/sha1, crypto/sha1 beside it, so one sweep shows the ratio.
func BenchmarkFingerprint(b *testing.B) {
	type hash struct {
		name string
		sum  func([]byte)
	}
	hashes := []hash{{"sha1/crypto.sha1", func(d []byte) { Of(SHA1, d) }}}
	if Kernel() != "crypto/sha1" {
		hashes[0].name = "sha1/" + Kernel()
		hashes = append(hashes, hash{"sha1/crypto.sha1", func(d []byte) { sha1.Sum(d) }})
	}
	hashes = append(hashes, hash{"sha256", func(d []byte) { Of(SHA256, d) }})
	for _, h := range hashes {
		for _, size := range []int{4 << 10, 64 << 10} {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 31)
			}
			b.Run(fmt.Sprintf("%s/%dKiB", h.name, size>>10), func(b *testing.B) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					h.sum(data)
				}
			})
		}
	}
}
