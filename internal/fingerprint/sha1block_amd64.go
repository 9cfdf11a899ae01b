//go:build !purego

package fingerprint

import "encoding/binary"

// This file and sha1block_amd64.s put SHA-1 on the CPU's SHA extensions:
// the crypto/sha1 of the Go release this module builds with (1.24) runs an
// AVX2 software schedule on amd64 even where the extensions exist, at about
// half their speed, and SHA-1 is the largest single cost of a backup. The
// digests are bit-identical, so nothing on a store depends on which kernel
// wrote it. Every other architecture, a CPU without the extensions and a
// build with -tags purego keep crypto/sha1. Delete both files once go.mod's
// minimum toolchain ships a crypto/sha1 that uses the extensions on amd64.

// sha1blockNI folds the 64-byte blocks of p into the chaining value h.
// len(p) must be a multiple of 64.
//
//go:noescape
func sha1blockNI(h *[5]uint32, p []byte)

// cpuid executes CPUID with EAX=leaf, ECX=sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func init() {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	if ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0 {
		sha1Sum, kernel = sumNI, "sha-ni"
	}
}

// sumNI is sha1.Sum on sha1blockNI: the whole blocks straight from data,
// then the tail with FIPS 180-4 padding (0x80, zeros, the bit length as a
// big-endian uint64) from a stack buffer of one or two blocks.
func sumNI(data []byte) [Size]byte {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	whole := len(data) &^ 63
	sha1blockNI(&h, data[:whole])
	var tail [128]byte
	n := copy(tail[:], data[whole:])
	tail[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:], uint64(len(data))<<3)
	sha1blockNI(&h, tail[:end])
	var sum [Size]byte
	for i, v := range h {
		binary.BigEndian.PutUint32(sum[4*i:], v)
	}
	return sum
}
