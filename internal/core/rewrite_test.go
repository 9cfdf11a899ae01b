package core

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/oss"
)

// rewriteFixture opens a repo over a recorded store holding one container
// of 24 one-KiB chunks — chunk 20 a second copy of chunk 3 — with every
// third marked deleted. The same bytes and the same ID every time.
func rewriteFixture(t *testing.T) (*Repo, *oss.Recorder, *oss.Mem, *container.Meta) {
	t.Helper()
	const n, sz = 24, 1024
	mem, rec := oss.NewMem(), &oss.Recorder{}
	repo, err := OpenRepo(oss.With(mem, rec), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	b := container.NewBuilder(repo.Containers)
	var id container.ID
	var chunks [][]byte
	for i := 0; i < n; i++ {
		data := make([]byte, sz)
		rng.Read(data)
		if i == 20 {
			data = chunks[3]
		}
		chunks = append(chunks, data)
		if id, err = b.Add(repo.Fingerprint(nil, data), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := repo.Containers.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	marked := *m
	marked.Chunks = append([]container.ChunkMeta(nil), m.Chunks...)
	for i := 0; i < n; i += 3 {
		marked.Chunks[i].Deleted = true
	}
	if err := repo.Containers.WriteMeta(&marked); err != nil {
		t.Fatal(err)
	}
	rec.Take()
	return repo, rec, mem, &marked
}

// TestRewriteContainerFromHeldSpans: a rewrite from a held payload — read
// whole, as tiles, or as the ranges of the chunks the rewrite keeps —
// rebuilds the object a rewrite that reads for itself rebuilds, byte for
// byte, without another read of the data object; a held payload that lacks
// a record the rewrite keeps (the second copy of a fingerprint, here) is
// not used, and the fallback still rebuilds the same bytes. (A container
// read as spans has no Data: indexing it used to panic.)
func TestRewriteContainerFromHeldSpans(t *testing.T) {
	const sz = 1024
	dataReads := func(rec *oss.Recorder, m *container.Meta) int {
		return len(rec.Requests(func(op oss.Op) bool {
			return op.Key == container.DataKey(m.Payload) && (op.Kind == oss.KindGet || op.Kind == oss.KindGetRange)
		}))
	}
	var want []byte
	{
		repo, rec, mem, m := rewriteFixture(t)
		freed, err := repo.RewriteContainer(repo.Containers, m, nil, repo.Containers.AllocateID())
		if err != nil {
			t.Fatal(err)
		}
		if freed != 8*sz || dataReads(rec, m) != 1 {
			t.Fatalf("reference rewrite: freed %d bytes with %d reads, want %d with 1", freed, dataReads(rec, m), 8*sz)
		}
		if want, err = mem.Get(switched(t, repo, mem, m)); err != nil {
			t.Fatal(err)
		}
	}
	// keep lists the live chunks of [from, to) as a ranged plan would.
	keep := func(m *container.Meta, from, to int) container.Span {
		sp := container.Span{Off: int64(from * sz), Len: int64((to - from) * sz)}
		for i := from; i < to; i++ {
			if !m.Chunks[i].Deleted {
				sp.Chunks = append(sp.Chunks, i)
			}
		}
		return sp
	}
	for _, tc := range []struct {
		name     string
		spans    func(m *container.Meta) []container.Span
		fallback bool
	}{
		{"whole", func(*container.Meta) []container.Span { return nil }, false},
		{"tiles", func(*container.Meta) []container.Span {
			return []container.Span{{Off: 0, Len: 7 * sz}, {Off: 7 * sz, Len: 9 * sz}, {Off: 16 * sz, Len: 8 * sz}}
		}, false},
		{"ranges", func(m *container.Meta) []container.Span {
			return []container.Span{keep(m, 1, 3), keep(m, 4, 6), keep(m, 7, 24)}
		}, false},
		{"ranges-missing-a-record", func(m *container.Meta) []container.Span {
			return []container.Span{keep(m, 1, 20), keep(m, 22, 24)}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			repo, rec, mem, m := rewriteFixture(t)
			held, err := repo.Containers.ReadSpans(m.ID, tc.spans(m))
			if err != nil {
				t.Fatal(err)
			}
			rec.Take()
			freed, err := repo.RewriteContainer(repo.Containers, m, held, repo.Containers.AllocateID())
			if err != nil {
				t.Fatal(err)
			}
			if freed != 8*sz {
				t.Errorf("freed %d bytes, want %d", freed, 8*sz)
			}
			if got := dataReads(rec, m); (got != 0) != tc.fallback {
				t.Errorf("%d reads of the data object during the rewrite, fallback expected: %v", got, tc.fallback)
			}
			got, err := mem.Get(switched(t, repo, mem, m))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("rebuilt object differs from the one rebuilt from a whole read (%d vs %d bytes)", len(got), len(want))
			}
			if c, err := repo.Containers.Read(m.ID); err != nil || c.Meta.StaleProportion() != 0 {
				t.Fatalf("rebuilt container does not read back clean and dense: %v", err)
			}
		})
	}
}

// switched checks that a rewrite of m left the container's meta naming a
// new payload and the old one deleted, and returns the new payload's key.
func switched(t *testing.T, repo *Repo, mem *oss.Mem, m *container.Meta) string {
	t.Helper()
	cur, err := repo.Containers.ReadMeta(m.ID)
	if err != nil || cur.Payload == m.Payload {
		t.Fatalf("the meta still names payload %s (%v)", m.Payload, err)
	}
	if _, err := mem.Head(container.DataKey(m.Payload)); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("the old payload is still there: %v", err)
	}
	return container.DataKey(cur.Payload)
}

// TestRewriteSwitchesOnlyFromWhatItRead: two rewrites built from the same
// meta — a second pass that read the container before the first switched
// it — leave the first one's payload in place, and the second deletes its
// own: one payload stays, the one the meta names.
func TestRewriteSwitchesOnlyFromWhatItRead(t *testing.T) {
	repo, _, mem, m := rewriteFixture(t)
	held, err := repo.Containers.Read(m.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.RewriteContainer(repo.Containers, m, nil, repo.Containers.AllocateID()); err != nil {
		t.Fatal(err)
	}
	first := switched(t, repo, mem, m)
	if _, err := repo.RewriteContainer(repo.Containers, m, held, repo.Containers.AllocateID()); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("the second rewrite returned %v, want it to lose its opportunity", err)
	}
	keys, err := mem.List(container.Prefix)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{container.MetaKey(m.ID), first}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("the store holds %v, want %v", keys, want)
	}
}

// TestRebuildCopiesPayloadOnce: a rewrite allocates its compacted payload
// with room for the footer, which WritePayload appends in place, so one
// Rebuild of a 1 MiB payload allocates under 1.5× its bytes — the payload
// once, not again for a framed copy — over a store whose data puts drop
// what they are given (a put that kept it would copy it).
func TestRebuildCopiesPayloadOnce(t *testing.T) {
	var drop atomic.Bool
	mem := oss.NewMem()
	repo, err := OpenRepo(oss.With(mem, oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if drop.Load() && op.Kind == oss.KindPut && strings.HasSuffix(op.Key, ".data") {
			return op, nil
		}
		return oss.Do(next, op)
	})), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	b := container.NewBuilder(repo.Containers)
	var id container.ID
	for i := 0; i < 256; i++ {
		data := make([]byte, 4<<10)
		rng.Read(data)
		if id, err = b.Add(repo.Fingerprint(nil, data), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	held, err := repo.Containers.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	drop.Store(true)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	nm, _, err := repo.Rebuild(repo.Containers, &held.Meta, held, repo.Containers.AllocateID())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(nm.DataSize)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(size)
	t.Logf("Rebuild of %d bytes in %d parts: %.3f allocated bytes per payload byte", size, nm.NumParts(), perByte)
	if size != 1<<20 || perByte >= 1.5 {
		t.Fatalf("Rebuild of %d bytes allocated %.2f bytes per payload byte, want a 1 MiB payload under 1.5", size, perByte)
	}
}
