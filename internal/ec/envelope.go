package ec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Shard envelope layout (little-endian, golden-pinned by golden_test.go):
//
//	offset size field
//	 0     4    magic "SLES" (0x53454C53 LE)
//	 4     4    version (2)
//	 8     8    stripe ID (FNV-1a 64 of the object key)
//	16     1    shard index
//	17     1    K (data shards)
//	18     1    M (parity shards)
//	19     1    reserved (0)
//	20     8    object length (bytes of the original, pre-split object)
//	28     4    object CRC-32/IEEE (checksum of the whole original object)
//	32     4    header CRC32C (over bytes 0..32)
//	36     …    shard payload (ShardSize(objLen) bytes)
//	end-4  4    payload CRC32C
//
// The (stripeID, objLen, objCRC) triple identifies the object a shard
// belongs to: a shard whose triple disagrees with the first valid one is an
// erasure, never joined with the rest. The object checksum is IEEE where
// every other checksum in the system is Castagnoli, because it must depend
// on the contents of an object that carries its own: an object ending in
// the CRC-32C of all before it has a CRC-32C that is the polynomial's
// residue 0x48674BC7 whatever it holds, and version 1 — which used it —
// could not tell two such objects of one length apart.

const (
	envMagic   = 0x53454C53 // "SLES"
	envVersion = 2

	// HeaderSize is the fixed envelope prefix before the shard payload.
	HeaderSize = 36
	// TrailerSize is the payload CRC suffix.
	TrailerSize = 4
	// Overhead is the total envelope bytes added per shard.
	Overhead = HeaderSize + TrailerSize
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// objCRC is the object identity's checksum: not crcTable's (above).
func objCRC(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// ErrEnvelope marks a shard whose envelope failed validation (bad magic,
// header CRC, or payload CRC) — the read path treats it as an erasure.
var ErrEnvelope = errors.New("ec: invalid shard envelope")

// ShardHeader is the decoded fixed prefix of a shard object.
type ShardHeader struct {
	StripeID uint64
	Index    int
	K, M     int
	ObjLen   int64
	ObjCRC   uint32
}

// StripeIDOf derives the stripe ID of an object key (FNV-1a 64).
func StripeIDOf(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h
}

// EncodeShard wraps one shard payload in its envelope.
func EncodeShard(h ShardHeader, payload []byte) []byte {
	b := make([]byte, HeaderSize+len(payload)+TrailerSize)
	binary.LittleEndian.PutUint32(b[0:], envMagic)
	binary.LittleEndian.PutUint32(b[4:], envVersion)
	binary.LittleEndian.PutUint64(b[8:], h.StripeID)
	b[16] = byte(h.Index)
	b[17] = byte(h.K)
	b[18] = byte(h.M)
	b[19] = 0
	binary.LittleEndian.PutUint64(b[20:], uint64(h.ObjLen))
	binary.LittleEndian.PutUint32(b[28:], h.ObjCRC)
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(b[:32], crcTable))
	copy(b[HeaderSize:], payload)
	binary.LittleEndian.PutUint32(b[HeaderSize+len(payload):], crc32.Checksum(payload, crcTable))
	return b
}

// DecodeShardHeader validates and decodes just the fixed prefix (enough
// for Head and ranged reads, which never touch the payload CRC).
func DecodeShardHeader(b []byte) (ShardHeader, error) {
	var h ShardHeader
	if len(b) < HeaderSize {
		return h, fmt.Errorf("%w: %d bytes, need %d header bytes", ErrEnvelope, len(b), HeaderSize)
	}
	if binary.LittleEndian.Uint32(b[0:]) != envMagic {
		return h, fmt.Errorf("%w: bad magic %#x", ErrEnvelope, binary.LittleEndian.Uint32(b[0:]))
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != envVersion {
		return h, fmt.Errorf("%w: unsupported shard envelope version %d (this build reads %d)", ErrEnvelope, v, envVersion)
	}
	if got, want := crc32.Checksum(b[:32], crcTable), binary.LittleEndian.Uint32(b[32:]); got != want {
		return h, fmt.Errorf("%w: header CRC mismatch (got %#x want %#x)", ErrEnvelope, got, want)
	}
	h.StripeID = binary.LittleEndian.Uint64(b[8:])
	h.Index = int(b[16])
	h.K = int(b[17])
	h.M = int(b[18])
	h.ObjLen = int64(binary.LittleEndian.Uint64(b[20:]))
	h.ObjCRC = binary.LittleEndian.Uint32(b[28:])
	if h.K < 1 || h.K+h.M > 256 || h.Index >= h.K+h.M || h.ObjLen < 0 {
		return h, fmt.Errorf("%w: implausible geometry idx=%d k=%d m=%d len=%d",
			ErrEnvelope, h.Index, h.K, h.M, h.ObjLen)
	}
	return h, nil
}

// DecodeShard validates the whole envelope (header and payload CRC) and
// returns the header and payload. The payload aliases b.
func DecodeShard(b []byte) (ShardHeader, []byte, error) {
	h, err := DecodeShardHeader(b)
	if err != nil {
		return h, nil, err
	}
	if len(b) < HeaderSize+TrailerSize {
		return h, nil, fmt.Errorf("%w: %d bytes, need at least %d", ErrEnvelope, len(b), HeaderSize+TrailerSize)
	}
	payload := b[HeaderSize : len(b)-TrailerSize]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(b[len(b)-TrailerSize:]); got != want {
		return h, nil, fmt.Errorf("%w: payload CRC mismatch (got %#x want %#x)", ErrEnvelope, got, want)
	}
	return h, payload, nil
}
