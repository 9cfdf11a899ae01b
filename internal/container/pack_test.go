package container

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

func fillContainer(t *testing.T, cs *Store, n int) *Container {
	t.Helper()
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i)
	}
	fp := fingerprint.Of(fingerprint.SHA1, payload)
	return &Container{
		Meta: Meta{
			ID:       cs.AllocateID(),
			DataSize: uint32(n),
			Chunks:   []ChunkMeta{{FP: fp, Offset: 0, Size: uint32(n)}},
		},
		Data: payload,
	}
}

// TestPackPoolBudgetBackpressure: with a byte budget, Write must block
// while the in-flight payload bytes would exceed it, and unblock as
// workers drain — and an oversized container must still be admitted when
// the pool is empty (no deadlock).
func TestPackPoolBudgetBackpressure(t *testing.T) {
	// Every data put waits at the gate, so the test can hold the pack
	// workers mid-write and observe the budget's backpressure.
	gate := make(chan struct{})
	slow := oss.With(oss.NewMem(), oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind == oss.KindPut && strings.HasSuffix(op.Key, ".data") {
			<-gate
		}
		return oss.Do(next, op)
	}))
	cs, err := NewStore(slow, 64<<10)
	if err != nil {
		t.Fatal(err)
	}

	const payload = 16 << 10
	// Budget admits exactly two in-flight containers of this size.
	p := NewPackPoolBudget(cs, 1, 2*(payload+1024))
	p.Write(fillContainer(t, cs, payload))
	p.Write(fillContainer(t, cs, payload))

	third := make(chan struct{})
	go func() {
		p.Write(fillContainer(t, cs, payload)) // must block on the budget
		close(third)
	}()
	select {
	case <-third:
		t.Fatal("third Write admitted beyond the byte budget")
	default:
	}
	// Release the worker: each completed write frees budget for the next.
	close(gate)
	<-third
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Oversized container on an idle pool: admitted alone.
	p2 := NewPackPoolBudget(cs, 1, 1024)
	p2.Write(fillContainer(t, cs, payload))
	if _, err := p2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPackPoolWritesLand: every payload queued before Close is durable
// after it, the pool puts no meta, and Close returns one sealed meta per
// container, naming the payload it put.
func TestPackPoolWritesLand(t *testing.T) {
	mem := oss.NewMem()
	cs, err := NewStore(mem, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPackPoolBudget(cs, 4, 48<<10)
	var ids []ID
	for i := 0; i < 16; i++ {
		c := fillContainer(t, cs, 8<<10)
		ids = append(ids, c.Meta.ID)
		p.Write(c)
	}
	sealed, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := mem.List(Prefix)
	for _, k := range keys {
		if strings.HasSuffix(k, ".meta") {
			t.Fatalf("the pack pool put meta %s", k)
		}
	}
	if len(keys) != len(ids) || len(sealed) != len(ids) {
		t.Fatalf("%d objects stored, %d metas sealed for %d containers", len(keys), len(sealed), len(ids))
	}
	slices.SortFunc(sealed, func(a, b *Meta) int { return cmp.Compare(a.ID, b.ID) })
	for i, id := range ids {
		m := sealed[i]
		if m.ID != id || m.Payload != id || len(m.Chunks) != 1 || m.DataSize != 8<<10 {
			t.Fatalf("sealed meta %d: ID %v payload %v, %d chunks, %d bytes; want container %v", i, m.ID, m.Payload, len(m.Chunks), m.DataSize, id)
		}
		raw, err := mem.Get(DataKey(id))
		if err != nil {
			t.Fatalf("payload of container %v not durable: %v", id, err)
		}
		if _, ok := SplitData(m, raw); !ok {
			t.Fatalf("payload of container %v fails its footer checksum", id)
		}
	}
}
