package lnode

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
	res, err := New(ref, "ref").resolve(ref.Containers, r, allRecords(r), simclock.NewAccount(), nil)
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

// deletionFixture backs up two unrelated versions of f over layer, so a
// deletion of v0 drops every container v0's restore reads, and returns the
// repository, v0's bytes and the key of v0's recipe.
func deletionFixture(t *testing.T, layer oss.Layer) (*core.Repo, []byte, string) {
	t.Helper()
	repo, err := core.OpenRepo(oss.With(oss.NewMem(), layer), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	v0 := genData(97, 1<<20)
	for _, data := range [][]byte{v0, genData(98, 1<<20)} {
		if _, err := n.Backup("f", data); err != nil {
			t.Fatal(err)
		}
	}
	return repo, v0, fmt.Sprintf("recipes/%x/%08d.recipe", "f", 0)
}

// TestRestoreRacingDeletionOfItsVersion: a restore takes no file lock, so
// a deletion of the version it restores can run beside it. Run to
// completion after the restore read its recipe, the deletion makes the
// restore fail as a deleted version, wrapping oss.ErrNotFound, never as a
// lost chunk. Started while a restore holds its pins, at its first data
// read, the deletion commits but its drop waits for the pins: the restore
// returns the exact bytes.
func TestRestoreRacingDeletionOfItsVersion(t *testing.T) {
	const hang = 10 * time.Second
	deleteV0 := func(repo *core.Repo) chan error {
		done := make(chan error, 1)
		go func() {
			st, err := gnode.New(repo).DeleteVersion("f", 0)
			if err == nil && st.ContainersCollected == 0 {
				err = errors.New("fixture: the deletion dropped no container")
			}
			done <- err
		}()
		return done
	}

	t.Run("after-recipe", func(t *testing.T) {
		var repo *core.Repo
		var deleted error
		var recipeKey string
		var fired atomic.Bool
		layer := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
			op, err := oss.Do(next, op)
			if err == nil && op.Kind == oss.KindGet && op.Key == recipeKey && fired.CompareAndSwap(false, true) {
				select {
				case deleted = <-deleteV0(repo):
				case <-time.After(hang):
					deleted = errors.New("the deletion did not complete while a restore of its version held its recipe")
				}
			}
			return op, err
		})
		repo, _, recipeKey = deletionFixture(t, layer)
		var buf bytes.Buffer
		_, err := New(repo, "l1").Restore("f", 0, &buf)
		if deleted != nil {
			t.Fatal(deleted)
		}
		if !errors.Is(err, oss.ErrNotFound) || strings.Contains(err.Error(), "lost") {
			t.Fatalf("restore of a version deleted after its recipe was read: %v, want a deleted version wrapping oss.ErrNotFound", err)
		}
	})

	t.Run("pinned", func(t *testing.T) {
		var armed atomic.Bool
		held, release := make(chan struct{}), make(chan struct{})
		uncatalogued := make(chan struct{})
		var dropped atomic.Int32 // container objects deleted while the restore is held
		var catalogKey string
		layer := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
			if isDataRead(op) && armed.CompareAndSwap(true, false) {
				close(held)
				<-release
			}
			op, err := oss.Do(next, op)
			if err == nil && op.Kind == oss.KindDelete {
				switch {
				case op.Key == catalogKey:
					close(uncatalogued)
				case strings.HasPrefix(op.Key, container.Prefix):
					select {
					case <-release:
					default:
						dropped.Add(1)
					}
				}
			}
			return op, err
		})
		catalogKey = fmt.Sprintf("catalog/%x/%08d.info", "f", 0)
		repo, want, _ := deletionFixture(t, layer)
		armed.Store(true)
		restored := make(chan error, 1)
		var buf bytes.Buffer
		go func() {
			_, err := New(repo, "l1").Restore("f", 0, &buf)
			restored <- err
		}()
		<-held
		done := deleteV0(repo)
		select {
		case <-uncatalogued:
		case <-time.After(hang):
			t.Error("the deletion did not commit while a restore of its version was reading")
		}
		// The drop comes within moments of the commit; it must not land.
		select {
		case err := <-done:
			t.Errorf("the deletion finished while the restore held its pins (err %v)", err)
			done <- err
		case <-time.After(200 * time.Millisecond):
		}
		if n := dropped.Load(); n != 0 {
			t.Errorf("%d container objects deleted under a restore's pins", n)
		}
		close(release)
		if err := errors.Join(<-restored, <-done); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatal("the pinned restore returned other bytes")
		}
	})
}
