package cache

import "slimstore/internal/fingerprint"

// spillStore is the FV cache's Cache_d layer (paper §V-A): chunks demoted
// from memory park here until the restore position approaches them. It is
// a byte-counted map; the local-disk cost of the traffic through it is
// charged in virtual time (Costs.DiskCachePerByte) by the caller.
type spillStore struct {
	mem   map[fingerprint.FP][]byte
	bytes int64
}

func newSpillStore() *spillStore {
	return &spillStore{mem: make(map[fingerprint.FP][]byte)}
}

// put parks a chunk; a chunk already parked stays as it is. The caller has
// removed it from the memory layer.
func (s *spillStore) put(fp fingerprint.FP, data []byte) {
	if s.has(fp) {
		return
	}
	s.mem[fp] = data
	s.bytes += int64(len(data))
}

// has reports whether fp is parked here.
func (s *spillStore) has(fp fingerprint.FP) bool {
	_, ok := s.mem[fp]
	return ok
}

// take retrieves and removes a parked chunk.
func (s *spillStore) take(fp fingerprint.FP) ([]byte, bool) {
	data, ok := s.mem[fp]
	s.drop(fp)
	return data, ok
}

// drop discards a parked chunk.
func (s *spillStore) drop(fp fingerprint.FP) {
	s.bytes -= int64(len(s.mem[fp]))
	delete(s.mem, fp)
}
