package container

import (
	"bytes"
	"errors"
	"testing"

	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

// staleFooterContainer writes a two-chunk container over a Frozen store,
// marks the first chunk deleted and rots a byte inside it at rest, so the
// data object's footer CRC no longer matches its payload while every live
// chunk is intact. It returns the live chunk.
func staleFooterContainer(t *testing.T) (*oss.Frozen, *Store, ID, fingerprint.FP, []byte) {
	t.Helper()
	mem := oss.NewFrozen(oss.NewMem())
	cs, err := NewStore(mem, DefaultCapacity)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(cs)
	dead, d1 := chunkOf(1, 400)
	live, d2 := chunkOf(2, 400)
	id, _ := b.Add(dead, d1)
	b.Add(live, d2)
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	m, _ := cs.ReadMeta(id)
	m.Find(dead).Deleted = true
	if err := cs.WriteMeta(m); err != nil {
		t.Fatal(err)
	}
	rotAtRest(t, mem, DataKey(id), 10)
	return mem, cs, id, live, d2
}

// rotAtRest flips one byte of a stored object the only legal way: a Put of
// changed bytes.
func rotAtRest(t *testing.T, s oss.Store, key string, at int) {
	t.Helper()
	raw, err := s.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw)
	raw[at] ^= 0xFF
	if err := s.Put(key, raw); err != nil {
		t.Fatal(err)
	}
}

// TestReadSkipsFooterButNotChunks: Read serves a container whose footer is
// stale (rot confined to a deleted region) without computing the footer
// CRC, still fails on rot in a live chunk naming that chunk, and ReadRaw
// still reports the footer verdict scrub acts on.
func TestReadSkipsFooterButNotChunks(t *testing.T) {
	mem, cs, id, live, want := staleFooterContainer(t)
	c, err := cs.Read(id)
	if err != nil {
		t.Fatalf("rot in a deleted region failed Read: %v", err)
	}
	if got, err := c.Get(live); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("live chunk: %v", err)
	}
	if _, footerOK, err := cs.ReadRaw(id); err != nil || footerOK {
		t.Fatalf("ReadRaw footerOK = %v, %v; want false: scrub finds dead-region rot by it", footerOK, err)
	}

	rotAtRest(t, mem, DataKey(id), 400+7) // inside the live chunk
	_, err = cs.Read(id)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Container != id || ce.FP != live {
		t.Fatalf("rot in a live chunk: got %v, want a CorruptError naming %s in %s", err, live.Short(), id)
	}
	if err := mem.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteOfFetchedContainerLeavesStoreBytesAlone: a fetched payload is
// the object store's memory, so it must not offer the stored footer as the
// headroom Write seals into in place. With a stale footer the in-place
// seal would "repair" eight bytes of the stored object through a read —
// which Frozen sees.
func TestWriteOfFetchedContainerLeavesStoreBytesAlone(t *testing.T) {
	mem, cs, id, live, want := staleFooterContainer(t)
	c, err := cs.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if cap(c.Data) != len(c.Data) {
		t.Fatalf("fetched payload has %d bytes of headroom", cap(c.Data)-len(c.Data))
	}
	c.Meta.ID = cs.AllocateID()
	if err := cs.Write(c); err != nil {
		t.Fatal(err)
	}
	if err := mem.Check(); err != nil {
		t.Fatalf("Write of a fetched container wrote through it: %v", err)
	}
	for _, rid := range []ID{id, c.Meta.ID} {
		rc, err := cs.Read(rid)
		if err != nil {
			t.Fatalf("%s: %v", rid, err)
		}
		if got, err := rc.Get(live); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: live chunk: %v", rid, err)
		}
	}
	if _, footerOK, _ := cs.ReadRaw(id); footerOK {
		t.Fatal("the source's stale footer changed")
	}
	if _, footerOK, _ := cs.ReadRaw(c.Meta.ID); !footerOK {
		t.Fatal("the copy was sealed with a bad footer")
	}
}
