package lnode

import (
	"bytes"
	"sync/atomic"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// These tests pin pinSequence's validation (DESIGN.md §7, §14): a pass is
// accepted once pinned unless a container write-side section ended since
// it began, and a maintenance step that lands while the pass is reading
// metadata is handled by what it is — a rewrite takes the write side and
// forces a second pass under the pins; deletion marks do not, and the
// bytes the first pass resolved to are still there.

// afterFirstGet returns a layer that, the first time key is read, returns
// the bytes read only once fn has run to completion on its own goroutine
// (fn may take any lock; the reader holds the ones it holds).
func afterFirstGet(key string, fn func()) oss.Layer {
	var fired atomic.Bool
	return oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		op, err := oss.Do(next, op)
		if err == nil && op.Kind == oss.KindGet && op.Key == key && fired.CompareAndSwap(false, true) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				fn()
			}()
			<-done
		}
		return op, err
	})
}

// onePass resolves every record of fileID v0 on a scratch handle over mem:
// the container metas one pass consults.
func onePass(t *testing.T, mem oss.Store, cfg core.Config, fileID string) (int, container.ID) {
	t.Helper()
	ref, err := core.OpenRepo(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ref.Recipes.GetRecipe(fileID, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(ref, "ref").resolve(ref.Containers, r, allRecords(r), simclock.NewAccount())
	if err != nil {
		t.Fatal(err)
	}
	return res.MetaReads, allRecords(r)[0].Container
}

// TestPinFallsBackAfterRewrite: a home container is rewritten (new
// payload, old one deleted) just after the restore's first pass read its
// meta. The rewrite moved the write counter, so the restore resolves again
// under its pins and reads the rewritten payload, byte-exact — the one the
// first pass saw no longer exists.
func TestPinFallsBackAfterRewrite(t *testing.T) {
	cfg := testConfig()
	mem := oss.NewMem()
	data := optimizedChain(t, mem, cfg, 94, 1<<20, 1)[0]
	pass, home := onePass(t, mem, cfg, "f")

	var repo *core.Repo
	var rewriteErr error
	var was, now container.ID
	probe := newProbe(mem, afterFirstGet(container.MetaKey(home), func() {
		c, err := repo.Containers.View(mem).Read(home) // unrecorded: only the restore's reads are checked
		if rewriteErr = err; err != nil {
			return
		}
		c.Data = bytes.Clone(c.Data) // a fetched container's Data is read-only
		was, c.Meta.Payload = c.Meta.Payload, repo.Containers.AllocateID()
		now = c.Meta.Payload
		if rewriteErr = repo.Containers.WritePayload(c); rewriteErr == nil {
			rewriteErr = repo.Switch(repo.Containers, &c.Meta, was)
		}
	}))
	repo, err := core.OpenRepo(probe.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	var buf bytes.Buffer
	st, err := n.Restore("f", 0, &buf)
	if rewriteErr != nil {
		t.Fatalf("rewrite: %v", rewriteErr)
	}
	if err != nil {
		t.Fatalf("restore across a rewrite of %s: %v", home, err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restored bytes differ")
	}
	if got := st.Cache.ResolveMetaReads; got != 2*pass {
		t.Errorf("ResolveMetaReads = %d, want %d (two passes of %d)", got, 2*pass, pass)
	}
	read := map[string]bool{}
	for _, q := range probe.rec.Requests(func(op oss.Op) bool { return isData(op) && op.Kind != oss.KindPut && op.Kind != oss.KindDelete }) {
		read[q.Key] = true
	}
	if !read[container.DataKey(now)] || read[container.DataKey(was)] {
		t.Errorf("data read from %v, want the rewritten payload %s and not %s", read, now, was)
	}
}

// TestPinAcceptsFirstPassUnderMarks: reverse dedup marks chunks of a home
// container deleted just after the restore's first pass read its meta, and
// takes no write side. The first pass is accepted and reads the marked
// copies, whose bytes are still stored; the next restore sees the marks
// and redirects.
func TestPinAcceptsFirstPassUnderMarks(t *testing.T) {
	cfg := testConfig()
	mem := oss.NewMem()
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(95, 1<<20)
	fst, err := n.Backup("f", data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gnode.New(repo).ReverseDedup(fst.NewContainers); err != nil { // registers f's chunks
		t.Fatal(err)
	}
	// An unrelated file that shares f's first 32 KiB: duplicates of a
	// few chunks of f's first container, too few to make it sparse.
	gst, err := n.Backup("g", append(bytes.Clone(data[:32<<10]), genData(96, 1<<20)...))
	if err != nil {
		t.Fatal(err)
	}
	pass, home := onePass(t, mem, cfg, "f")

	var rd *gnode.ReverseDedupStats
	var rdErr error
	var writes [2]uint64
	probe := newProbe(mem, afterFirstGet(container.MetaKey(home), func() {
		writes[0] = repo.CLocks.Writes()
		rd, rdErr = gnode.New(repo).ReverseDedup(gst.NewContainers)
		writes[1] = repo.CLocks.Writes()
	}))
	if repo, err = core.OpenRepo(probe.store, cfg); err != nil {
		t.Fatal(err)
	}
	n = New(repo, "l0")
	var buf bytes.Buffer
	st, err := n.Restore("f", 0, &buf)
	if rdErr != nil {
		t.Fatalf("reverse dedup: %v", rdErr)
	}
	if rd.DuplicatesRemoved == 0 || rd.ContainersRewritten != 0 || writes[0] != writes[1] {
		t.Fatalf("fixture: reverse dedup removed %d duplicates, rewrote %d containers, moved the write counter %d → %d",
			rd.DuplicatesRemoved, rd.ContainersRewritten, writes[0], writes[1])
	}
	if err != nil {
		t.Fatalf("restore across reverse dedup's marks: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restored bytes differ")
	}
	if got := st.Cache.ResolveMetaReads; got != pass || st.Redirects != 0 {
		t.Errorf("ResolveMetaReads = %d, Redirects = %d; want %d and 0 (the first pass, from before the marks)", got, st.Redirects, pass)
	}
	buf.Reset()
	if st, err = n.Restore("f", 0, &buf); err != nil || !bytes.Equal(buf.Bytes(), data) {
		t.Fatalf("restore after the marks: err %v, bytes equal %v", err, bytes.Equal(buf.Bytes(), data))
	}
	if st.Redirects == 0 {
		t.Error("the restore after the marks redirects nothing: it resolved against a stale meta")
	}
}
