package kvstore

import (
	"bytes"
	"math/rand"
)

// skiplist is the memtable data structure: a classic probabilistic skip
// list over internal entries ordered by (user key ASC, seq DESC) so the
// newest version of a key is encountered first during iteration.
//
// It is deliberately single-writer: the DB serialises writes with its own
// mutex, matching the single-writer design of the LSM write path.
const (
	maxHeight = 16
	branching = 4
)

type skipNode struct {
	entry entry
	next  [maxHeight]*skipNode
}

type skiplist struct {
	head   *skipNode
	height int
	rnd    *rand.Rand
	count  int
	bytes  int64
}

func newSkiplist(seed int64) *skiplist {
	return &skiplist{
		head:   &skipNode{},
		height: 1,
		rnd:    rand.New(rand.NewSource(seed)),
	}
}

// internalLess orders entries by user key ascending, then seq descending
// (newer first), so a Get scan finds the latest version immediately.
func internalLess(a, b *entry) bool {
	if c := bytes.Compare(a.key, b.key); c != 0 {
		return c < 0
	}
	return a.seq > b.seq
}

func (s *skiplist) randomHeight() int {
	h := 1
	for h < maxHeight && s.rnd.Intn(branching) == 0 {
		h++
	}
	return h
}

// insert adds an entry. Entries are unique by (key, seq); the DB always
// assigns fresh sequence numbers, so duplicates cannot occur.
func (s *skiplist) insert(e entry) {
	var prev [maxHeight]*skipNode
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for x.next[level] != nil && internalLess(&x.next[level].entry, &e) {
			x = x.next[level]
		}
		prev[level] = x
	}
	h := s.randomHeight()
	if h > s.height {
		for level := s.height; level < h; level++ {
			prev[level] = s.head
		}
		s.height = h
	}
	n := &skipNode{entry: e}
	for level := 0; level < h; level++ {
		n.next[level] = prev[level].next[level]
		prev[level].next[level] = n
	}
	s.count++
	s.bytes += int64(len(e.key) + len(e.value) + 16)
}

// seekGE returns the first node with entry >= target in internal order.
func (s *skiplist) seekGE(target *entry) *skipNode {
	x := s.head
	for level := s.height - 1; level >= 0; level-- {
		for x.next[level] != nil && internalLess(&x.next[level].entry, target) {
			x = x.next[level]
		}
	}
	return x.next[0]
}

// get returns the newest entry for key, if any.
func (s *skiplist) get(key []byte) (entry, bool) {
	n := s.seekGE(&entry{key: key, seq: ^uint64(0)})
	if n != nil && bytes.Equal(n.entry.key, key) {
		return n.entry, true
	}
	return entry{}, false
}

// first returns the first node in order, or nil.
func (s *skiplist) first() *skipNode { return s.head.next[0] }

// memIter iterates a skiplist in internal order.
type memIter struct {
	node *skipNode
}

func (s *skiplist) iter() *memIter { return &memIter{node: s.first()} }

func (it *memIter) valid() bool { return it.node != nil }

func (it *memIter) cur() *entry { return &it.node.entry }

func (it *memIter) next() { it.node = it.node.next[0] }
