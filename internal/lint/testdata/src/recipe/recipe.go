// Package recipe replays the one map-order bug this repository has had:
// a recipe index whose samples were encoded in map iteration order, so
// two identical backups wrote different `.index` bytes. The package is
// named recipe so determinism applies its map-order rule exactly as it
// does to the real one — and only that rule: recipe charges no virtual
// time, so the wall clock below is not this analyzer's business.
package recipe

import (
	"bytes"
	"encoding/binary"
	"sort"
	"time"
)

type fp [20]byte

type index struct {
	samples map[fp]int
}

// encodeIndex is the historical bug: the object's bytes are the map's
// iteration order.
func encodeIndex(idx *index) []byte {
	var buf []byte
	var u32 [4]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		buf = append(buf, u32[:]...)
	}
	put32(uint32(len(idx.samples)))
	for f, seg := range idx.samples { // BAD: appended bytes never sorted
		buf = append(buf, f[:]...)
		put32(uint32(seg))
	}
	return buf
}

// encodeIndexSorted is the shipped fix: samples in fingerprint order.
func encodeIndexSorted(idx *index) []byte {
	fps := make([]fp, 0, len(idx.samples))
	for f := range idx.samples {
		fps = append(fps, f)
	}
	sort.Slice(fps, func(i, j int) bool { return bytes.Compare(fps[i][:], fps[j][:]) < 0 })
	var buf []byte
	var u32 [4]byte
	for _, f := range fps {
		buf = append(buf, f[:]...)
		binary.LittleEndian.PutUint32(u32[:], uint32(idx.samples[f]))
		buf = append(buf, u32[:]...)
	}
	return buf
}

// stamp is the control for the scope split: a wall-clock read outside the
// simclock-charged packages is not a finding.
func stamp() int64 { return time.Now().UnixNano() }
