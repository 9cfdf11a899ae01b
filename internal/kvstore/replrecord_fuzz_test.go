package kvstore

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzSeedReplRecord builds a small valid record for the seed corpus.
func fuzzSeedReplRecord() []byte {
	var b Batch
	b.Put([]byte("fp-0123456789abcdef"), []byte("C0000000000000012"))
	b.Delete([]byte("fp-fedcba9876543210"))
	return AppendReplRecord(nil, 3, 17, &b)
}

// FuzzReplRecord drives the replication log decoder — the WAL's entry
// decoder behind a replication header — with arbitrary bytes. Invariants:
// it never panics, allocates in proportion to its input, every rejection
// wraps ErrBadReplRecord, and the encoding is canonical — any accepted
// input re-encodes byte-identical (so a torn tail, flipped bit, or trailing
// garbage can never silently alias another record).
func FuzzReplRecord(f *testing.F) {
	valid := fuzzSeedReplRecord()
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-1])                     // torn tail
	f.Add(valid[:24])                               // header-only truncation
	f.Add(append(valid[:len(valid):len(valid)], 0)) // trailing garbage
	flipped := append([]byte{}, valid...)
	flipped[6] ^= 0x40 // corrupt the term without touching the CRC field
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		var term, index uint64
		var b *Batch
		var err error
		boundedAlloc(t, len(data), func() { term, index, b, err = DecodeReplRecord(data) })
		if err != nil {
			if !errors.Is(err, ErrBadReplRecord) {
				t.Fatalf("rejection does not wrap ErrBadReplRecord: %v", err)
			}
			if b != nil {
				t.Fatal("decoder returned a batch alongside an error")
			}
			return
		}
		again := AppendReplRecord(nil, term, index, b)
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted record is not canonical:\n in  %x\n out %x", data, again)
		}
	})
}
