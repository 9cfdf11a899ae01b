// Package fingerprint defines chunk fingerprints and the representative
// sampling used throughout SLIMSTORE.
//
// A fingerprint is a cryptographically secure hash of a chunk's content; two
// chunks with equal fingerprints are treated as duplicates (paper §II). The
// paper uses SHA-1; SHA-256 is offered as a stronger alternative. Sampling
// follows the mod-R scheme used by Sparse Indexing and DeFrame (paper §IV-A):
// a fingerprint is representative iff its low bits mod R equal zero.
package fingerprint

import (
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Size is the number of bytes kept from the underlying hash. 20 bytes (the
// full SHA-1 width) keeps collision probability negligible for any dataset
// this system will see while remaining compact in indexes and recipes.
const Size = 20

// FP is a chunk fingerprint.
type FP [Size]byte

// Algorithm selects the hash used to fingerprint chunks.
type Algorithm int

// Supported fingerprint algorithms.
const (
	SHA1 Algorithm = iota
	SHA256
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case SHA1:
		return "sha1"
	case SHA256:
		return "sha256"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// Valid reports whether alg is one of the supported algorithms.
func (a Algorithm) Valid() bool { return a == SHA1 || a == SHA256 }

// sha1Sum is the SHA-1 behind Of and kernel its name: crypto/sha1 unless
// this package's init found a faster implementation for the CPU it runs on
// (sha1block_amd64.go). Both are written at init only.
var sha1Sum, kernel = sha1.Sum, "crypto/sha1"

// Kernel names the SHA-1 implementation Of runs in this process: "sha-ni"
// (the x86 SHA extensions) or "crypto/sha1".
func Kernel() string { return kernel }

// Of computes the fingerprint of data with the given algorithm. For SHA256
// the digest is truncated to Size bytes. alg must be Valid (core.OpenRepo
// checks the configured one); anything else is a caller's bug and panics
// rather than fingerprint under a hash nobody chose.
func Of(alg Algorithm, data []byte) FP {
	switch alg {
	case SHA1:
		return sha1Sum(data)
	case SHA256:
		var fp FP
		sum := sha256.Sum256(data)
		copy(fp[:], sum[:Size])
		return fp
	default:
		panic(fmt.Sprintf("fingerprint: unknown algorithm %d", int(alg)))
	}
}

// OfBytes computes the default (SHA-1) fingerprint of data.
func OfBytes(data []byte) FP { return Of(SHA1, data) }

// String returns the hex form of the fingerprint.
func (f FP) String() string { return hex.EncodeToString(f[:]) }

// Short returns the first 8 hex characters, for logs.
func (f FP) Short() string { return hex.EncodeToString(f[:4]) }

// Uint64 folds the leading 8 bytes into an integer; used for sampling and
// for bloom-filter derivation.
func (f FP) Uint64() uint64 { return binary.BigEndian.Uint64(f[:8]) }

// IsZero reports whether f is the zero fingerprint.
func (f FP) IsZero() bool { return f == FP{} }

// Parse decodes a hex fingerprint produced by String.
func Parse(s string) (FP, error) {
	var fp FP
	b, err := hex.DecodeString(s)
	if err != nil {
		return fp, fmt.Errorf("fingerprint: parse %q: %w", s, err)
	}
	if len(b) != Size {
		return fp, fmt.Errorf("fingerprint: parse %q: want %d bytes, got %d", s, Size, len(b))
	}
	copy(fp[:], b)
	return fp, nil
}

// Sampler selects representative fingerprints with the mod-R rule.
// R must be a power of two; R == 1 samples everything.
type Sampler struct {
	mask uint64
}

// NewSampler returns a sampler with ratio 1/r. r is rounded down to a power
// of two; r < 1 is treated as 1.
func NewSampler(r int) Sampler {
	if r < 1 {
		r = 1
	}
	// Round down to a power of two so the mod reduces to a mask.
	p := 1
	for p*2 <= r {
		p *= 2
	}
	return Sampler{mask: uint64(p - 1)}
}

// Sample reports whether fp is representative (fp mod R == 0).
func (s Sampler) Sample(fp FP) bool { return fp.Uint64()&s.mask == 0 }
