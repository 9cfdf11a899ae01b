package lnode

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/oss"
)

// These tests pin the reads a restore begins before its index probe
// answers (DESIGN.md §14): the homes it reads whole are pinned and read
// while the probe and the redirect targets' metas are, unless a container
// write ended before that pin.

// redirectedFixture builds a chain whose oldest version redirects into
// containers it never referenced, with the global index flushed into
// tables, and returns that version's bytes and the data keys of its
// recipe's home containers.
func redirectedFixture(t *testing.T, mem oss.Store, cfg core.Config) ([]byte, map[string]bool) {
	t.Helper()
	kept := optimizedChain(t, mem, cfg, 81, 3<<20, 5)
	ref := mustOpen(t, mem, cfg)
	r, err := ref.Recipes.GetRecipe("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	homeKeys := map[string]bool{}
	for _, rec := range allRecords(r) {
		if m, err := ref.Containers.ReadMeta(rec.Container); err == nil {
			for _, k := range m.DataKeys() {
				homeKeys[k] = true
			}
		}
	}
	if _, redirects, err := resolveReference(ref, r, allRecords(r)); err != nil || redirects == 0 {
		t.Fatalf("fixture: %d redirects (%v), want some", redirects, err)
	}
	if err := ref.Global.Close(); err != nil { // a cold probe reads tables
		t.Fatal(err)
	}
	return kept[0], homeKeys
}

func isTableRead(op oss.Op) bool {
	return (op.Kind == oss.KindGet || op.Kind == oss.KindGetRange) && strings.HasPrefix(op.Key, "gidx/") && strings.Contains(op.Key, "/sst/")
}

// TestBegunReadsOverlapTheProbe: on a cold handle, a restore with
// redirects has a home container's data read in flight while the global
// index's table reads are held: the first table read waits for a data
// read to be issued, and that data read waits for the table read, so the
// two meet only if the restore reads data before its probe has answered.
func TestBegunReadsOverlapTheProbe(t *testing.T) {
	cfg := testConfig()
	mem := oss.NewMem()
	data, homeKeys := redirectedFixture(t, mem, cfg)

	var (
		once         [2]sync.Once
		tableIn      = make(chan struct{})
		dataIn       = make(chan struct{})
		mu           sync.Mutex
		met, missed  bool
		firstDataKey string
	)
	meet := func(mine int, arrived, other chan struct{}) {
		first := false
		once[mine].Do(func() { close(arrived); first = true })
		if !first {
			return
		}
		select {
		case <-other:
			mu.Lock()
			met = true
			mu.Unlock()
		case <-time.After(2 * time.Second):
			mu.Lock()
			missed = true
			mu.Unlock()
		}
	}
	hold := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		switch {
		case isTableRead(op):
			meet(0, tableIn, dataIn)
		case isDataRead(op):
			mu.Lock()
			if firstDataKey == "" {
				firstDataKey = op.Key
			}
			mu.Unlock()
			meet(1, dataIn, tableIn)
		}
		return oss.Do(next, op)
	})
	repo := mustOpen(t, oss.With(mem, hold), cfg)
	if err := restoreMatches(New(repo, "l0"), "f", 0, data); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !met || missed {
		t.Fatalf("no data read was in flight while the index probe's table reads were held (met %v, missed %v)", met, missed)
	}
	if !homeKeys[firstDataKey] {
		t.Fatalf("the first data read, of %s, is of no home container", firstDataKey)
	}
}

// TestBegunReadsFallBackAfterRewrite: on a version with redirects, a home
// container is rewritten (Switch to a fresh payload) just after the
// restore read its meta, before the reads it would begin are pinned. The
// write counter moved, so the restore begins nothing: no data is read
// before the last metadata read, the second pass reads the rewritten
// payload and never the old one, and the bytes are exact.
func TestBegunReadsFallBackAfterRewrite(t *testing.T) {
	cfg := testConfig()
	mem := oss.NewMem()
	data, _ := redirectedFixture(t, mem, cfg)
	ref := mustOpen(t, mem, cfg)
	r, err := ref.Recipes.GetRecipe("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	home := container.Invalid
	for _, rec := range allRecords(r) {
		if _, err := ref.Containers.ReadMeta(rec.Container); err == nil {
			home = rec.Container
			break
		}
	}
	if home == container.Invalid {
		t.Fatal("fixture: no home container is left")
	}

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
	repo = mustOpen(t, probe.store, cfg)
	probe.rec.Take()
	var buf bytes.Buffer
	st, err := New(repo, "l0").Restore("f", 0, &buf)
	if rewriteErr != nil {
		t.Fatalf("rewrite: %v", rewriteErr)
	}
	if err != nil {
		t.Fatalf("restore across a rewrite of %s: %v", home, err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restored bytes differ")
	}
	if st.Prefetch.Cancelled != 0 {
		t.Errorf("%d reads started and never taken", st.Prefetch.Cancelled)
	}
	reqs := probe.rec.Requests(nil)
	lastMeta := -1
	read := map[string]bool{}
	for i, q := range reqs {
		if isMetaGet(q.Op) {
			lastMeta = i
		}
		if isDataRead(q.Op) {
			read[q.Op.Key] = true
		}
	}
	for _, q := range reqs[:lastMeta+1] {
		if isDataRead(q.Op) {
			t.Fatalf("data read %q before the last metadata read: a read was begun after the counter moved", q.Op)
		}
	}
	if !read[container.DataKey(now)] || read[container.DataKey(was)] {
		t.Errorf("data read from %v, want the rewritten payload %s and not %s", read, now, was)
	}
}
