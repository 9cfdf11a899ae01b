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
// One record format is written: a batch record, one per DB.Apply (a Put or
// Delete is a batch of one), under one CRC so recovery replays it
// all-or-nothing. Little endian:
//
//	crc u32 | baseSeq u64 | 0xFF u8 | count u32 | entry*
//	entry = kind u8 | klen u32 | key | vlen u32 | value
//
// Entry i carries sequence baseSeq+i. The CRC covers everything after the
// crc field. (Builds before repository header format 3 also wrote
// single-entry records; the header refuses every repository that can hold
// one, so recovery reads batch records only.)

// walBatchKind marks a batch record; it cannot collide with entryKind
// values, which are small iota constants.
const walBatchKind = 0xFF

// errTruncated marks a record that runs off the end of its bytes — a torn
// write. Open tolerates it at the tail of the final WAL segment (the
// decoded prefix is the durable part); anywhere else it is corruption.
// Note a complete record with a damaged length field can masquerade as a
// truncated one; that ambiguity is inherent to torn-write tolerance.
var errTruncated = errors.New("kvstore: truncated record")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends one record — crc u32 | pos u64* | kind u8 | count u32
// | entry* — to buf. pos is where the record stands: a WAL batch's base
// sequence, a replication record's term and index. The entries' own seq
// fields are implied by that position, never written.
func appendRecord(buf []byte, kind byte, entries []entry, pos ...uint64) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	for _, p := range pos {
		buf = binary.LittleEndian.AppendUint64(buf, p)
	}
	buf = append(buf, kind)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for i := range entries {
		e := &entries[i]
		buf = append(buf, byte(e.kind))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.value)))
		buf = append(buf, e.value...)
	}
	binary.LittleEndian.PutUint32(buf[start:], crc32.Checksum(buf[start+4:], crcTable))
	return buf
}

// decodeEntries decodes count entries of b starting at p, giving entry i
// sequence seq+i, and returns them with the offset past the last. Entries
// that run off the end of b fail with errTruncated, an entry kind other
// than put or delete as corruption. It trusts no count or length beyond the
// bytes it holds, so hostile input cannot size an allocation.
func decodeEntries(b []byte, p, count int, seq uint64) ([]entry, int, error) {
	if count < 0 || count > (len(b)-p)/9 { // every entry takes ≥ 9 bytes
		return nil, p, fmt.Errorf("%w: %d entries in %d bytes at %d", errTruncated, count, len(b)-p, p)
	}
	out := make([]entry, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < p+5 {
			return nil, p, fmt.Errorf("%w: entry header at %d", errTruncated, p)
		}
		kind := entryKind(b[p])
		if kind != kindPut && kind != kindDelete {
			return nil, p, fmt.Errorf("kvstore: unknown entry kind %d at %d", kind, p)
		}
		klen := int(binary.LittleEndian.Uint32(b[p+1:]))
		p += 5
		if len(b) < p+klen+4 {
			return nil, p, fmt.Errorf("%w: key at %d", errTruncated, p)
		}
		key := append([]byte{}, b[p:p+klen]...)
		p += klen
		vlen := int(binary.LittleEndian.Uint32(b[p:]))
		p += 4
		if len(b) < p+vlen {
			return nil, p, fmt.Errorf("%w: value at %d", errTruncated, p)
		}
		value := append([]byte{}, b[p:p+vlen]...)
		p += vlen
		out = append(out, entry{key: key, value: value, seq: seq + uint64(i), kind: kind})
	}
	return out, p, nil
}

// decodeWALSegment parses a WAL segment, returning its records in order.
// On a truncated record it returns the complete prefix decoded so far
// along with an error wrapping errTruncated, so the caller can decide
// whether the tear is tolerable. A record is appended only if it decodes
// completely and its CRC verifies — never partially.
func decodeWALSegment(b []byte) ([]entry, error) {
	var out []entry
	for p := 0; p < len(b); {
		if len(b) < p+17 {
			return out, fmt.Errorf("%w: header at %d", errTruncated, p)
		}
		crc := binary.LittleEndian.Uint32(b[p:])
		start := p + 4
		seq := binary.LittleEndian.Uint64(b[start:])
		if b[start+8] != walBatchKind {
			return out, fmt.Errorf("kvstore: WAL record kind %#x at %d is not a batch", b[start+8], start)
		}
		rec, end, err := decodeEntries(b, start+13, int(binary.LittleEndian.Uint32(b[start+9:])), seq)
		if err != nil {
			return out, err
		}
		if crc32.Checksum(b[start:end], crcTable) != crc {
			return out, fmt.Errorf("kvstore: WAL CRC mismatch at %d", start)
		}
		out = append(out, rec...)
		p = end
	}
	return out, nil
}

// Replication record (internal/repl). The replicated global index stores
// each committed batch as one log object in the WAL batch record's format,
// positioned by the replication term and index instead of a sequence:
//
//	crc u32 | term u64 | index u64 | 0xFE u8 | count u32 | entry*
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
	return appendRecord(buf, replRecordKind, b.entries, term, index)
}

// DecodeReplRecord parses exactly one replication log record. It is
// all-or-nothing: any truncation, trailing garbage, unknown entry kind, or
// CRC mismatch returns an error wrapping ErrBadReplRecord and no batch.
func DecodeReplRecord(data []byte) (term, index uint64, b *Batch, err error) {
	fail := func(what any) (uint64, uint64, *Batch, error) {
		return 0, 0, nil, fmt.Errorf("%w: %v", ErrBadReplRecord, what)
	}
	if len(data) < 25 {
		return fail("short header")
	}
	if data[20] != replRecordKind {
		return fail("not a replication record")
	}
	entries, p, err := decodeEntries(data, 25, int(binary.LittleEndian.Uint32(data[21:])), 0)
	switch {
	case err != nil:
		return fail(err)
	case p != len(data):
		return fail("trailing bytes")
	case crc32.Checksum(data[4:], crcTable) != binary.LittleEndian.Uint32(data):
		return fail("crc mismatch")
	}
	return binary.LittleEndian.Uint64(data[4:]), binary.LittleEndian.Uint64(data[12:]), &Batch{entries: entries}, nil
}
