package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Write-ahead log.
//
// OSS objects are immutable, so the WAL is a sequence of segment objects
// (kv/wal/<seq>), each holding a batch of records. Records buffer in memory
// and persist when the buffer reaches Options.WALFlushBytes, on Sync(), or
// before a memtable flush — the durability/cost trade-off of running a log
// on object storage. Each record carries a CRC32C so torn or corrupt
// segments are detected during recovery.
//
// Single-record wire format, little endian:
//
//	crc u32 | seq u64 | kind u8 | klen u32 | key | vlen u32 | value
//
// Batch record (kind byte = walBatchKind, from DB.Apply): one record for
// the whole batch under one CRC, so recovery replays it all-or-nothing:
//
//	crc u32 | baseSeq u64 | 0xFF u8 | count u32 |
//	  ( kind u8 | klen u32 | key | vlen u32 | value )*
//
// Sub-entry i carries sequence baseSeq+i. The CRC covers everything after
// the crc field in both formats.

// walBatchKind marks a batch record; it cannot collide with entryKind
// values, which are small iota constants.
const walBatchKind = 0xFF

// errTruncatedWAL marks a record that runs off the end of its segment — a
// torn write. Open tolerates it at the tail of the final segment (the
// decoded prefix is the durable part); anywhere else it is corruption.
// Note a complete record with a damaged length field can masquerade as a
// truncated one; that ambiguity is inherent to torn-write tolerance.
var errTruncatedWAL = errors.New("kvstore: truncated WAL record")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func appendWALRecord(buf []byte, e *entry) []byte {
	body := make([]byte, 0, 17+len(e.key)+len(e.value))
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], e.seq)
	body = append(body, tmp[:]...)
	body = append(body, byte(e.kind))
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.key)))
	body = append(body, tmp[:4]...)
	body = append(body, e.key...)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.value)))
	body = append(body, tmp[:4]...)
	body = append(body, e.value...)

	binary.LittleEndian.PutUint32(tmp[:4], crc32.Checksum(body, crcTable))
	buf = append(buf, tmp[:4]...)
	return append(buf, body...)
}

// appendWALBatchRecord encodes a whole batch as one record. Entry seq
// fields are implied (baseSeq+i), not serialized.
func appendWALBatchRecord(buf []byte, baseSeq uint64, entries []entry) []byte {
	size := 13
	for i := range entries {
		size += 9 + len(entries[i].key) + len(entries[i].value)
	}
	body := make([]byte, 0, size)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], baseSeq)
	body = append(body, tmp[:]...)
	body = append(body, walBatchKind)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(entries)))
	body = append(body, tmp[:4]...)
	for i := range entries {
		e := &entries[i]
		body = append(body, byte(e.kind))
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.key)))
		body = append(body, tmp[:4]...)
		body = append(body, e.key...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.value)))
		body = append(body, tmp[:4]...)
		body = append(body, e.value...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], crc32.Checksum(body, crcTable))
	buf = append(buf, tmp[:4]...)
	return append(buf, body...)
}

// Replication record (internal/repl). The replicated global index stores
// each committed batch as one log object whose payload reuses the WAL
// batch-entry body, prefixed with the replication position that orders and
// fences it:
//
//	crc u32 | term u64 | index u64 | 0xFE u8 | count u32 |
//	  ( kind u8 | klen u32 | key | vlen u32 | value )*
//
// The CRC covers everything after the crc field, so a torn or corrupted
// log object decodes all-or-nothing, exactly like a WAL batch record.

// replRecordKind marks a replication log record. Distinct from
// walBatchKind so a repl record can never be mistaken for a WAL segment
// record and vice versa.
const replRecordKind = 0xFE

// ErrBadReplRecord reports a replication log record that failed
// validation (truncated, corrupt, or not a repl record at all).
var ErrBadReplRecord = errors.New("kvstore: bad replication record")

// AppendReplRecord encodes batch b as one replication log record stamped
// with (term, index) and appends it to buf.
func AppendReplRecord(buf []byte, term, index uint64, b *Batch) []byte {
	size := 21
	for i := range b.entries {
		size += 9 + len(b.entries[i].key) + len(b.entries[i].value)
	}
	body := make([]byte, 0, size)
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], term)
	body = append(body, tmp[:]...)
	binary.LittleEndian.PutUint64(tmp[:], index)
	body = append(body, tmp[:]...)
	body = append(body, replRecordKind)
	binary.LittleEndian.PutUint32(tmp[:4], uint32(len(b.entries)))
	body = append(body, tmp[:4]...)
	for i := range b.entries {
		e := &b.entries[i]
		body = append(body, byte(e.kind))
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.key)))
		body = append(body, tmp[:4]...)
		body = append(body, e.key...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(e.value)))
		body = append(body, tmp[:4]...)
		body = append(body, e.value...)
	}
	binary.LittleEndian.PutUint32(tmp[:4], crc32.Checksum(body, crcTable))
	buf = append(buf, tmp[:4]...)
	return append(buf, body...)
}

// DecodeReplRecord parses exactly one replication log record. It is
// all-or-nothing: any truncation, trailing garbage, unknown entry kind, or
// CRC mismatch returns an error wrapping ErrBadReplRecord and no batch.
// The decoder never trusts length fields beyond the data it holds, so
// hostile inputs cannot force large allocations.
func DecodeReplRecord(data []byte) (term, index uint64, b *Batch, err error) {
	fail := func(what string) (uint64, uint64, *Batch, error) {
		return 0, 0, nil, fmt.Errorf("%w: %s", ErrBadReplRecord, what)
	}
	if len(data) < 25 {
		return fail("short header")
	}
	crc := binary.LittleEndian.Uint32(data)
	body := data[4:]
	term = binary.LittleEndian.Uint64(body)
	index = binary.LittleEndian.Uint64(body[8:])
	if body[16] != replRecordKind {
		return fail("not a replication record")
	}
	count := int(binary.LittleEndian.Uint32(body[17:]))
	p := 21
	maxEntries := (len(body) - p) / 9 // every entry takes ≥9 bytes
	if count < 0 || count > maxEntries {
		return fail("entry count exceeds payload")
	}
	b = &Batch{entries: make([]entry, 0, count)}
	for i := 0; i < count; i++ {
		if len(body) < p+5 {
			return fail("truncated entry header")
		}
		kind := entryKind(body[p])
		if kind != kindPut && kind != kindDelete {
			return fail("unknown entry kind")
		}
		klen := int(binary.LittleEndian.Uint32(body[p+1:]))
		p += 5
		if klen < 0 || len(body) < p+klen+4 {
			return fail("truncated key")
		}
		key := append([]byte{}, body[p:p+klen]...)
		p += klen
		vlen := int(binary.LittleEndian.Uint32(body[p:]))
		p += 4
		if vlen < 0 || len(body) < p+vlen {
			return fail("truncated value")
		}
		value := append([]byte{}, body[p:p+vlen]...)
		p += vlen
		b.entries = append(b.entries, entry{key: key, value: value, kind: kind})
	}
	if p != len(body) {
		return fail("trailing bytes")
	}
	if crc32.Checksum(body, crcTable) != crc {
		return fail("crc mismatch")
	}
	return term, index, b, nil
}

// decodeWALSegment parses a WAL segment, returning its records in order.
// On a truncated record it returns the complete prefix decoded so far
// along with an error wrapping errTruncatedWAL, so the caller can decide
// whether the tear is tolerable. A batch record is appended only if it
// decodes completely and its CRC verifies — never partially.
func decodeWALSegment(b []byte) ([]entry, error) {
	var out []entry
	p := 0
	for p < len(b) {
		if len(b) < p+17 {
			return out, fmt.Errorf("%w: header at %d", errTruncatedWAL, p)
		}
		crc := binary.LittleEndian.Uint32(b[p:])
		start := p + 4
		seq := binary.LittleEndian.Uint64(b[start:])
		kind := b[start+8]
		n := int(binary.LittleEndian.Uint32(b[start+9:]))
		p = start + 13

		if kind == walBatchKind {
			if n > (len(b)-p)/9 { // every sub-entry takes ≥ 9 bytes
				return out, fmt.Errorf("%w: batch of %d entries at %d", errTruncatedWAL, n, p)
			}
			batch := make([]entry, 0, n)
			for i := 0; i < n; i++ {
				if len(b) < p+5 {
					return out, fmt.Errorf("%w: batch entry header at %d", errTruncatedWAL, p)
				}
				ekind := entryKind(b[p])
				klen := int(binary.LittleEndian.Uint32(b[p+1:]))
				p += 5
				if len(b) < p+klen+4 {
					return out, fmt.Errorf("%w: batch key at %d", errTruncatedWAL, p)
				}
				key := append([]byte{}, b[p:p+klen]...)
				p += klen
				vlen := int(binary.LittleEndian.Uint32(b[p:]))
				p += 4
				if len(b) < p+vlen {
					return out, fmt.Errorf("%w: batch value at %d", errTruncatedWAL, p)
				}
				value := append([]byte{}, b[p:p+vlen]...)
				p += vlen
				batch = append(batch, entry{key: key, value: value, seq: seq + uint64(i), kind: ekind})
			}
			if crc32.Checksum(b[start:p], crcTable) != crc {
				return out, fmt.Errorf("kvstore: WAL CRC mismatch at %d", start)
			}
			out = append(out, batch...)
			continue
		}

		klen := n
		if len(b) < p+klen+4 {
			return out, fmt.Errorf("%w: key at %d", errTruncatedWAL, p)
		}
		key := append([]byte{}, b[p:p+klen]...)
		p += klen
		vlen := int(binary.LittleEndian.Uint32(b[p:]))
		p += 4
		if len(b) < p+vlen {
			return out, fmt.Errorf("%w: value at %d", errTruncatedWAL, p)
		}
		value := append([]byte{}, b[p:p+vlen]...)
		p += vlen
		if crc32.Checksum(b[start:p], crcTable) != crc {
			return out, fmt.Errorf("kvstore: WAL CRC mismatch at %d", start)
		}
		out = append(out, entry{key: key, value: value, seq: seq, kind: entryKind(kind)})
	}
	return out, nil
}
