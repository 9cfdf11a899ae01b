package lnode

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
)

// These tests inject storage faults and verify the system fails loudly,
// leaves no corrupted state behind, and recovers via the audit sweep.

func TestBackupFailsWhenOSSDies(t *testing.T) {
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	repo, err := core.OpenRepo(faulty, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")

	// Let a handful of container writes land, then cut the connection.
	faulty.FailPutsAfter(3)
	if _, err := n.Backup("f", genData(50, 4<<20)); !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("backup error = %v, want injected fault", err)
	}

	// The failed backup must not have registered a version.
	faulty.Clear()
	if vs, _ := repo.Recipes.Versions("f"); len(vs) != 0 {
		t.Fatalf("failed backup registered versions %v", vs)
	}

	// Orphaned containers from the dead job are reclaimed by the audit.
	gn := gnode.New(repo)
	audit, err := gn.FullSweep()
	if err != nil {
		t.Fatal(err)
	}
	if audit.ContainersSwept == 0 {
		t.Fatal("audit found no orphans after a mid-backup crash")
	}

	// A retry on the healed store succeeds and restores correctly.
	data := genData(50, 4<<20)
	st, err := n.Backup("f", data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 0 {
		t.Fatalf("retry version = %d", st.Version)
	}
	if !bytes.Equal(restoreBytes(t, n, "f", 0), data) {
		t.Fatal("post-recovery restore corrupt")
	}
}

// TestBackupFailsWhenSuperchunkContainerFailsToSeal: a container the
// version's merged superchunks already reference fails to upload on a pack
// worker; the pool's barrier in persist must return the store's error
// before any recipe object of the version is written.
func TestBackupFailsWhenSuperchunkContainerFailsToSeal(t *testing.T) {
	mem := oss.NewMem()
	var armed atomic.Bool // fail the next containers/ put, once
	store := oss.With(mem, oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind == oss.KindPut && strings.HasPrefix(op.Key, container.Prefix) && armed.CompareAndSwap(true, false) {
			return op, fmt.Errorf("%w: %s", oss.ErrInjected, op)
		}
		return oss.Do(next, op)
	}))
	cfg := testConfig()
	cfg.MergeThreshold = 1 // the second backup merges every duplicate run
	repo, err := core.OpenRepo(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(53, 1<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	before, _ := mem.List("recipes/")

	armed.Store(true)
	if _, err := n.Backup("f", data); !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("backup error = %v, want injected fault", err)
	}
	if armed.Load() {
		t.Fatal("second backup never wrote a container")
	}
	if after, _ := mem.List("recipes/"); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed backup left recipe objects behind:\nbefore %v\nafter  %v", before, after)
	}
}

func TestRestorePropagatesReadFaults(t *testing.T) {
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	repo, err := core.OpenRepo(faulty, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	if _, err := n.Backup("f", genData(51, 2<<20)); err != nil {
		t.Fatal(err)
	}
	// Fail reads of the first container's payload.
	keys, _ := mem.List("containers/")
	for _, k := range keys {
		if strings.HasSuffix(k, ".data") {
			faulty.FailGet(k)
			break
		}
	}
	if _, err := n.Restore("f", 0, io.Discard); !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("restore error = %v, want injected fault", err)
	}
}

func TestVerifyRestoreCatchesCorruption(t *testing.T) {
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	cfg := testConfig()
	cfg.VerifyRestore = true
	cfg.PrefetchThreads = 0
	// The clean control restore below would populate the node-wide shared
	// cache, and the post-corruption restore would then (correctly) serve
	// clean bytes from memory without touching OSS. This test is about
	// detection on read, so make every restore read the store.
	cfg.SharedCacheBytes = -1
	repo, err := core.OpenRepo(faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(52, 2<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	// Clean restore passes verification.
	if !bytes.Equal(restoreBytes(t, n, "f", 0), data) {
		t.Fatal("clean verified restore corrupt")
	}
	// Bit-rot in a container payload must be detected, not returned.
	keys, _ := mem.List("containers/")
	for _, k := range keys {
		if strings.HasSuffix(k, ".data") {
			faulty.CorruptReads(k)
		}
	}
	_, err = n.Restore("f", 0, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupted restore error = %v, want verification failure", err)
	}
}

func TestRestoreDetectsCorruptionWithoutVerifyFlag(t *testing.T) {
	// Even with VerifyRestore off (no per-chunk re-fingerprinting), the
	// container CRCs must catch bit-rot: corruption never flows through
	// silently.
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	cfg := testConfig()
	cfg.VerifyRestore = false
	cfg.PrefetchThreads = 0
	repo, err := core.OpenRepo(faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(53, 1<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	keys, _ := mem.List("containers/")
	for _, k := range keys {
		if strings.HasSuffix(k, ".data") {
			faulty.CorruptReads(k)
		}
	}
	var buf bytes.Buffer
	_, err = n.Restore("f", 0, &buf)
	if err == nil {
		t.Fatal("corrupted restore succeeded silently")
	}
	if !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("restore error = %v, want ErrCorrupt", err)
	}
	var ce *container.CorruptError
	if !errors.As(err, &ce) || ce.Container == container.Invalid {
		t.Fatalf("error should identify the corrupt container: %v", err)
	}
}

func TestRangeRestoreDetectsCorruption(t *testing.T) {
	// The range path fetches whole containers too, so the same CRC checks
	// must guard partial restores — a corrupted window fails, never returns
	// wrong bytes.
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	cfg := testConfig()
	cfg.PrefetchThreads = 0
	repo, err := core.OpenRepo(faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(55, 2<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}

	// Clean range restore first, as a control.
	var buf bytes.Buffer
	if _, err := n.RestoreRange("f", 0, 512<<10, 64<<10, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data[512<<10:576<<10]) {
		t.Fatal("clean range restore returned wrong bytes")
	}

	keys, _ := mem.List("containers/")
	for _, k := range keys {
		if strings.HasSuffix(k, ".data") {
			faulty.CorruptReads(k)
		}
	}
	buf.Reset()
	_, err = n.RestoreRange("f", 0, 512<<10, 64<<10, &buf)
	if err == nil {
		t.Fatal("corrupted range restore succeeded silently")
	}
	if !errors.Is(err, container.ErrCorrupt) {
		t.Fatalf("range restore error = %v, want ErrCorrupt", err)
	}
}

// rotUnderCRCs rewrites the chunk holding logical byte `at` of fileID v0
// with one payload byte flipped and every CRC over it recomputed —
// corruption the container checks cannot see, only the fingerprint.
func rotUnderCRCs(t *testing.T, repo *core.Repo, fileID string, at int64) {
	t.Helper()
	r, err := repo.Recipes.GetRecipe(fileID, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := windowRecords(r, at, at+1)
	hit := recs[0]
	c, err := repo.Containers.Read(hit.Container)
	if err != nil {
		t.Fatal(err)
	}
	cm := c.Meta.Find(hit.FP)
	if cm == nil || cm.Deleted {
		t.Fatalf("fixture: chunk %s is not live in its home container %s", hit.FP.Short(), hit.Container)
	}
	c.Data = bytes.Clone(c.Data) // a fetched container's Data is read-only
	c.Data[int(cm.Offset)+int(cm.Size)/2] ^= 0xFF
	// The rewrite reseals: every chunk sum is taken from the rotted bytes.
	was := c.Meta.Payload
	c.Meta.Payload = repo.Containers.AllocateID()
	if err := repo.Containers.WritePayload(c); err != nil {
		t.Fatal(err)
	}
	if err := repo.Switch(repo.Containers, &c.Meta, was); err != nil {
		t.Fatal(err)
	}
}

// checkRangeVerify asserts that a range restore honours
// Config.VerifyRestore like a full one: with a chunk inside
// [off, off+length) rotted under its CRCs, the window comes back wrong
// and silent with verification off, fails naming the chunk with it on,
// and a verified window elsewhere (cleanOff) still restores.
func checkRangeVerify(t *testing.T, n *LNode, repo *core.Repo, fileID string, data []byte, off, length, cleanOff int64) {
	t.Helper()
	was := repo.Config.VerifyRestore
	defer func() { repo.Config.VerifyRestore = was }()
	var buf bytes.Buffer
	repo.Config.VerifyRestore = false
	if _, err := n.RestoreRange(fileID, 0, off, length, &buf); err != nil {
		t.Fatalf("fixture: the rotted chunk fails the container checks: %v", err)
	}
	if bytes.Equal(buf.Bytes(), data[off:off+length]) {
		t.Fatal("fixture: the window does not contain the rotted chunk")
	}
	repo.Config.VerifyRestore = true
	buf.Reset()
	if _, err := n.RestoreRange(fileID, 0, off, length, &buf); err == nil || !strings.Contains(err.Error(), "verify: chunk") {
		t.Errorf("verified range restore over a rotted chunk: err = %v, want a verify failure", err)
	}
	buf.Reset()
	if _, err := n.RestoreRange(fileID, 0, cleanOff, length, &buf); err != nil || !bytes.Equal(buf.Bytes(), data[cleanOff:cleanOff+length]) {
		t.Errorf("verified range restore of a clean window: err = %v", err)
	}
}

func TestGnodeFaultPropagation(t *testing.T) {
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	repo, err := core.OpenRepo(faulty, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	st, err := n.Backup("f", genData(54, 2<<20))
	if err != nil {
		t.Fatal(err)
	}
	// Reverse dedup must surface meta-read failures.
	keys, _ := mem.List("containers/")
	for _, k := range keys {
		if strings.HasSuffix(k, ".meta") {
			faulty.FailGet(k)
		}
	}
	repo.Containers.InvalidateMeta(st.NewContainers[0])
	gn := gnode.New(repo)
	if _, err := gn.ReverseDedup(st.NewContainers); err == nil {
		t.Fatal("reverse dedup swallowed a read fault")
	}
}
