package gnode

import (
	"bytes"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

// flipChunkAtRest corrupts one byte of a live chunk directly in the
// backing store — silent at-rest rot, invisible until something verifies.
func flipChunkAtRest(t *testing.T, mem *oss.Mem, repo *core.Repo, id container.ID, fp fingerprint.FP) {
	t.Helper()
	m, err := repo.Containers.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	cm := m.Find(fp)
	if cm == nil {
		t.Fatalf("chunk %s not in %s", fp.Short(), id)
	}
	key := container.Prefix + id.String() + ".data"
	raw, err := mem.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw) // a Get result is read-only; rot is a Put of changed bytes
	raw[cm.Offset+cm.Size/2] ^= 0xFF
	if err := mem.Put(key, raw); err != nil {
		t.Fatal(err)
	}
}

// firstLiveChunk returns a live chunk fingerprint of a container.
func firstLiveChunk(t *testing.T, repo *core.Repo, id container.ID) fingerprint.FP {
	t.Helper()
	m, err := repo.Containers.ReadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Chunks {
		if !m.Chunks[i].Deleted {
			return m.Chunks[i].FP
		}
	}
	t.Fatalf("container %s has no live chunks", id)
	return fingerprint.FP{}
}

func TestScrubRepairsFromDonor(t *testing.T) {
	cfg := testConfig()
	cfg.SimilarityMinScore = 1.1 // L-node misses cross-file dups → two physical copies
	ln, gn, repo, mem := setup(t, cfg)

	shared := genData(1, 1<<20)
	stA, err := ln.Backup("a", shared)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ln.Backup("b", shared); err != nil {
		t.Fatal(err)
	}

	victim := stA.NewContainers[0]
	fp := firstLiveChunk(t, repo, victim)
	flipChunkAtRest(t, mem, repo, victim, fp)

	sc, err := gn.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if sc.CorruptChunks != 1 || sc.RepairedChunks != 1 || sc.RebuiltContainers != 1 {
		t.Fatalf("scrub = %+v, want 1 corrupt chunk repaired via donor", sc)
	}
	if !sc.Clean() {
		t.Fatalf("scrub not clean: quarantined %v, lost %v", sc.Quarantined, sc.Lost)
	}
	if got := restoreBytes(t, ln, "a", stA.Version); !bytesEqual(got, shared) {
		t.Fatal("restore after repair is not byte-identical")
	}
	// A second scrub finds nothing to do.
	sc2, err := gn.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if sc2.CorruptChunks != 0 || sc2.RebuiltContainers != 0 {
		t.Fatalf("second scrub still found damage: %+v", sc2)
	}
}

func TestScrubQuarantinesWithoutDonor(t *testing.T) {
	ln, gn, repo, mem := setup(t, testConfig())

	data := genData(2, 1<<20)
	st, err := ln.Backup("solo", data)
	if err != nil {
		t.Fatal(err)
	}
	other := genData(3, 256<<10)
	stOther, err := ln.Backup("other", other)
	if err != nil {
		t.Fatal(err)
	}

	victim := st.NewContainers[0]
	fp := firstLiveChunk(t, repo, victim)
	flipChunkAtRest(t, mem, repo, victim, fp)

	sc, err := gn.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Quarantined) != 1 || sc.Quarantined[0] != victim {
		t.Fatalf("quarantined = %v, want [%s]", sc.Quarantined, victim)
	}
	if len(sc.Lost) != 1 || sc.Lost[0] != fp {
		t.Fatalf("lost = %v, want [%s]", sc.Lost, fp.Short())
	}
	if sc.RecipesRewritten == 0 {
		t.Fatal("recipes referencing the quarantined container were not rewritten")
	}

	// The damaged version must fail loudly, never return wrong bytes.
	if _, err := ln.Restore("solo", st.Version, discard{}); err == nil {
		t.Fatal("restore of a version with a lost chunk succeeded silently")
	}
	// Untouched versions stay restorable (their chunks were elsewhere).
	if got := restoreBytes(t, ln, "other", stOther.Version); !bytesEqual(got, other) {
		t.Fatal("unaffected version no longer restores byte-identical")
	}

	// The quarantined objects moved, not vanished: forensics keeps them.
	keys, err := mem.List(container.QuarantinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("quarantine namespace holds %d objects, want data+meta", len(keys))
	}
}

func TestScrubClearsDeadRegionRot(t *testing.T) {
	_, gn, repo, mem := setup(t, testConfig())
	cs := repo.Containers

	// A container whose first chunk was deleted by reverse dedup.
	c := &container.Container{Meta: container.Meta{ID: cs.AllocateID()}}
	a, b := genData(4, 4<<10), genData(5, 4<<10)
	c.Meta.Chunks = []container.ChunkMeta{
		{FP: fingerprint.OfBytes(a), Offset: 0, Size: uint32(len(a))},
		{FP: fingerprint.OfBytes(b), Offset: uint32(len(a)), Size: uint32(len(b))},
	}
	c.Data = append(append([]byte{}, a...), b...)
	if err := cs.Write(c); err != nil {
		t.Fatal(err)
	}
	m, _ := cs.ReadMeta(c.Meta.ID)
	cp := *m
	cp.Chunks = append([]container.ChunkMeta(nil), m.Chunks...)
	cp.Chunks[0].Deleted = true
	if err := cs.WriteMeta(&cp); err != nil {
		t.Fatal(err)
	}

	// Rot a byte inside the dead region.
	key := container.Prefix + c.Meta.ID.String() + ".data"
	raw, _ := mem.Get(key)
	raw = bytes.Clone(raw)
	raw[10] ^= 0xFF
	mem.Put(key, raw)

	sc, err := gn.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if sc.FooterRepairs != 1 || sc.CorruptChunks != 0 || !sc.Clean() {
		t.Fatalf("scrub = %+v, want one footer repair and a clean repo", sc)
	}
	// The rebuild dropped the dead region; the survivor still verifies.
	got, err := cs.ReadChunk(c.Meta.ID, fingerprint.OfBytes(b))
	if err != nil || !bytesEqual(got, b) {
		t.Fatalf("survivor chunk after rot cleanup: %v", err)
	}
	sc2, _ := gn.Scrub()
	if sc2.FooterRepairs != 0 {
		t.Fatal("rot cleanup did not converge")
	}
}

// discard is an io.Writer swallowing restore output.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
