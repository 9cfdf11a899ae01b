package kvstore

import "container/list"

// blockCache is an LRU over decoded data blocks, keyed by (table, block
// offset). RocksDB-lineage engines keep hot blocks in memory so repeated
// point lookups don't re-fetch from storage — on OSS that saves a 2 ms
// round trip per hit, which dominates G-node reverse-dedup filtering when
// duplicates cluster (the paper's "caching the meta of the old container"
// observation generalised to the index itself).
type blockCache struct {
	capBytes int64
	bytes    int64
	m        map[blockKey]*list.Element
	order    *list.List // front = most recent
}

type blockKey struct {
	table string
	off   uint64
}

type blockVal struct {
	key     blockKey
	entries []entry
	size    int64
}

func newBlockCache(capBytes int64) *blockCache {
	return &blockCache{capBytes: capBytes, m: make(map[blockKey]*list.Element), order: list.New()}
}

func (c *blockCache) get(k blockKey) ([]entry, bool) {
	if c == nil {
		return nil, false
	}
	e, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(e)
	return e.Value.(*blockVal).entries, true
}

// has reports whether k is cached, without promoting it.
func (c *blockCache) has(k blockKey) bool {
	if c == nil {
		return false
	}
	_, ok := c.m[k]
	return ok
}

func (c *blockCache) put(k blockKey, entries []entry, size int64) {
	if c == nil || size > c.capBytes {
		return
	}
	if e, ok := c.m[k]; ok {
		c.order.MoveToFront(e)
		return
	}
	c.m[k] = c.order.PushFront(&blockVal{key: k, entries: entries, size: size})
	c.bytes += size
	for c.bytes > c.capBytes && c.order.Len() > 0 {
		back := c.order.Back()
		v := back.Value.(*blockVal)
		c.order.Remove(back)
		delete(c.m, v.key)
		c.bytes -= v.size
	}
}

// drop discards every cached block of one table (after compaction deletes
// it).
func (c *blockCache) drop(table string) {
	if c == nil {
		return
	}
	for e := c.order.Front(); e != nil; {
		next := e.Next()
		v := e.Value.(*blockVal)
		if v.key.table == table {
			c.order.Remove(e)
			delete(c.m, v.key)
			c.bytes -= v.size
		}
		e = next
	}
}
