package container

import (
	"testing"

	"slimstore/internal/oss"
	"slimstore/internal/poison"
)

// filledContainer returns a container a Builder of cs filled — its Data
// is a buffer of the store's pool — before anything wrote or released it.
func filledContainer(t *testing.T, cs *Store) *Container {
	t.Helper()
	var c *Container
	b := &Builder{store: cs, sink: func(filled *Container) error { c = filled; return nil }}
	fp, data := chunkOf(1, 1000)
	if _, err := b.Add(fp, data); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

// TestReleasePoisons is the run-time form of the pool-lifetime rules for
// the store's payload buffers: a reference held past Release — a late read,
// or an alias that escaped before it — reads the poison pattern over the
// whole buffer, not the chunk; a second Release of a buffer not taken since
// panics; one taken since does not.
func TestReleasePoisons(t *testing.T) {
	cs, err := NewStore(oss.NewMem(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	c := filledContainer(t, cs)
	alias := c.Data
	if err := cs.Write(c); err != nil {
		t.Fatal(err)
	}
	cs.Release(c)
	if c.Data != nil {
		t.Error("Release left the container holding its buffer")
	}
	if !poison.Filled(alias[:cap(alias)]) {
		t.Error("a payload held past Release does not read as poison to its capacity")
	}
	mustPanic(t, "a second Release of the same buffer", func() { cs.Release(&Container{Data: alias}) })

	// Taken since (when the pool hands the same buffer back): not a second put.
	cs.Release(filledContainer(t, cs))
}

// retainingStore breaks Put's contract: it keeps the caller's slice and
// serves it back.
type retainingStore struct {
	*oss.Mem
	kept map[string][]byte
}

func (s retainingStore) Put(key string, data []byte) error {
	s.kept[key] = data
	return s.Mem.Put(key, data)
}

func (s retainingStore) Get(key string) ([]byte, error) {
	if b, ok := s.kept[key]; ok {
		return b, nil
	}
	return s.Mem.Get(key)
}

// TestRetainingStoreFailsTheRead: a store that keeps the slice Write
// handed to Put serves poison once the buffer is recycled, and the chunk
// checksums of the next Read say so — the noretain rule, observed.
func TestRetainingStoreFailsTheRead(t *testing.T) {
	cs, err := NewStore(retainingStore{oss.NewMem(), map[string][]byte{}}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c := filledContainer(t, cs)
	id := c.Meta.ID
	if err := cs.Write(c); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Read(id); err != nil {
		t.Fatalf("read before the buffer is recycled: %v", err)
	}
	cs.Release(c)
	if _, err := cs.Read(id); err == nil {
		t.Error("a container served from a retained, recycled buffer read clean")
	}
}
