package gnode

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
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
	part := sort.Search(len(m.Parts), func(i int) bool { return m.Parts[i] > cm.Offset })
	start, _ := m.PartRange(part)
	key := container.PartKey(m.Payload, part)
	raw, err := mem.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw) // a Get result is read-only; rot is a Put of changed bytes
	raw[int64(cm.Offset+cm.Size/2)-start] ^= 0xFF
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
	if got := restoreBytes(t, ln, "a", stA.Version); !bytes.Equal(got, shared) {
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
	if _, err := ln.Restore("solo", st.Version, io.Discard); err == nil {
		t.Fatal("restore of a version with a lost chunk succeeded silently")
	}
	// Untouched versions stay restorable (their chunks were elsewhere).
	if got := restoreBytes(t, ln, "other", stOther.Version); !bytes.Equal(got, other) {
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

// TestScrubReportsLostChunksOfDamagedContainer: versions backed up and
// never optimized leave no index entry naming their containers. v1 keeps
// the tail of v0's first container and v0 is deleted, so that container
// holds live chunks v1 names and live chunks no recipe names. When it is
// damaged past repair the scrub quarantines it and reports as Lost what it
// can know was there and no other container holds: with its payload gone
// every live chunk of its meta, with its meta rotten every chunk v1's
// recipe names in it. v1 then fails loudly.
func TestScrubReportsLostChunksOfDamagedContainer(t *testing.T) {
	for _, damaged := range []string{"payload", "meta"} {
		t.Run(damaged, func(t *testing.T) {
			ln, gn, repo, mem := setup(t, testConfig())
			v0 := genData(6, 1<<20)
			st, err := ln.Backup("f", v0)
			if err == nil {
				_, err = ln.Backup("f", append(genData(7, 64<<10), v0[64<<10:]...))
			}
			if err == nil {
				_, err = gn.DeleteVersion("f", 0)
			}
			if err != nil {
				t.Fatal(err)
			}
			victim := st.NewContainers[0]
			m, err := repo.Containers.ReadMeta(victim)
			if err != nil {
				t.Fatal(err)
			}
			r, err := repo.Recipes.GetRecipe("f", 1)
			if err != nil {
				t.Fatal(err)
			}
			named, elsewhere := map[fingerprint.FP]bool{}, map[fingerprint.FP]bool{}
			r.Iter(func(_, _ int, cr *recipe.ChunkRecord) bool {
				named[cr.FP] = named[cr.FP] || cr.Container == victim
				return true
			})
			ids, err := repo.Containers.List()
			if err != nil {
				t.Fatal(err)
			}
			metas, err := repo.ReadMetas(repo.Containers, slices.DeleteFunc(ids, func(id container.ID) bool { return id == victim }), 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, om := range metas {
				for _, cm := range om.Chunks {
					elsewhere[cm.FP] = elsewhere[cm.FP] || !cm.Deleted
				}
			}
			var want []fingerprint.FP // what has no intact copy in another container
			for _, cm := range m.Chunks {
				if !cm.Deleted && !elsewhere[cm.FP] && (damaged == "payload" || named[cm.FP]) {
					want = append(want, cm.FP)
				}
			}
			if len(want) == 0 || damaged == "meta" && len(want) == len(m.Chunks) {
				t.Fatalf("fixture: v1 names %d of the %d chunks of %s", len(want), len(m.Chunks), victim)
			}
			slices.SortFunc(want, func(a, b fingerprint.FP) int { return bytes.Compare(a[:], b[:]) })
			if damaged == "payload" {
				err = mem.Delete(container.DataKey(m.Payload))
			} else {
				err = mem.Put(container.MetaKey(victim), []byte("not a meta"))
			}
			if err != nil {
				t.Fatal(err)
			}
			repo.Containers.InvalidateMeta(victim)

			sc, err := gn.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sc.Quarantined, []container.ID{victim}) {
				t.Fatalf("quarantined = %v, want [%s]", sc.Quarantined, victim)
			}
			if !slices.Equal(sc.Lost, want) {
				t.Fatalf("lost %d chunks, want %d of the %d of %s", len(sc.Lost), len(want), len(m.Chunks), victim)
			}
			if _, err := ln.Restore("f", 1, io.Discard); err == nil {
				t.Fatal("restore of a version with lost chunks succeeded silently")
			}
		})
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
	if err != nil || !bytes.Equal(got, b) {
		t.Fatalf("survivor chunk after rot cleanup: %v", err)
	}
	sc2, _ := gn.Scrub()
	if sc2.FooterRepairs != 0 {
		t.Fatal("rot cleanup did not converge")
	}
}

// TestScrubCrashAtEveryMutation kills a scrub that salvages a damaged
// container's intact chunks and quarantines it before every OSS mutation
// it issues. The container is a compaction's output, so index entries
// name it. After each reboot every index entry names a container that
// lists its fingerprint — the scrub repoints before it quarantines — and
// after a second scrub every version restores byte-identical or fails
// naming the lost chunk. Under rangedCosts the salvage is put in parts.
func TestScrubCrashAtEveryMutation(t *testing.T) {
	for _, ranged := range []bool{false, true} {
		t.Run(fmt.Sprintf("ranged=%v", ranged), func(t *testing.T) {
			cfg := testConfig()
			if ranged {
				rangedCosts(&cfg) // the salvaged payload goes in parts
			}
			baseline, cfg, want, st := sccFixtureOn(t, cfg, false)
			repo := mustOpen(t, baseline, cfg)
			if _, err := New(repo).CompactSparse("f", st.Version, st.SparseContainers); err != nil {
				t.Fatal(err)
			}
			victim := container.Invalid
			if err := repo.Global.Scan(func(_ fingerprint.FP, id container.ID) bool {
				victim = id
				return false
			}); err != nil || victim == container.Invalid {
				t.Fatalf("compaction left no index entry to repoint (%v)", err)
			}
			lostFP := firstLiveChunk(t, repo, victim)
			flipChunkAtRest(t, baseline, repo, victim, lostFP)

			oss.CrashAtEvery(t, baseline, 1, 400, func(s oss.Store) error {
				var rec oss.Recorder
				sc, err := New(mustOpen(t, oss.With(s, &rec), cfg)).Scrub()
				if err == nil && (len(sc.Quarantined) != 1 || len(sc.Lost) != 1 || sc.IndexRepointed == 0) {
					t.Fatalf("degenerate scrub, nothing salvaged, repointed and quarantined: %+v", sc)
				}
				if err == nil && ranged {
					assertPutInParts(t, &rec)
				}
				return err
			}, func(mem *oss.Mem, n int, _ error) bool {
				rebooted := mustOpen(t, mem, cfg)
				assertIndexSound(t, fmt.Sprintf("budget %d, rebooted", n), rebooted)
				if _, err := New(rebooted).Scrub(); err != nil {
					t.Fatalf("budget %d: second scrub: %v", n, err)
				}
				assertIndexSound(t, fmt.Sprintf("budget %d, scrubbed", n), rebooted)
				rl := lnode.New(rebooted, "l0")
				for v, data := range want {
					if err := restoreMatches(rl, "f", v, data); err != nil && !strings.Contains(err.Error(), lostFP.Short()) {
						t.Fatalf("budget %d: f v%d: %v, want the original bytes or a failure naming %s", n, v, err, lostFP.Short())
					}
				}
				return false
			})
		})
	}
}

// TestScrubQuarantinesEveryPart: a container whose payload is in parts,
// one part of it missing or rotten where no other container holds the
// chunk, is quarantined whole: its meta and every part it still had leave
// the live namespace for quarantine.
func TestScrubQuarantinesEveryPart(t *testing.T) {
	for _, damage := range []string{"missing", "rotted"} {
		t.Run(damage, func(t *testing.T) {
			cfg := testConfig()
			rangedCosts(&cfg) // L·B_w of ~5 KiB: the 128 KiB payloads go as parts
			ln, gn, repo, mem := setup(t, cfg)
			st, err := ln.Backup("f", genData(40, 512<<10))
			if err != nil {
				t.Fatal(err)
			}
			m, err := repo.Containers.ReadMeta(st.NewContainers[0])
			if err != nil || m.NumParts() != 2 {
				t.Fatalf("fixture: the payload is in %d parts (%v), want 2", m.NumParts(), err)
			}
			keys := append(m.DataKeys(), container.MetaKey(m.ID))
			switch damage {
			case "missing":
				if err := mem.Delete(container.PartKey(m.Payload, 1)); err != nil {
					t.Fatal(err)
				}
				keys = slices.Delete(keys, 1, 2)
			case "rotted":
				flipChunkAtRest(t, mem, repo, m.ID, m.Chunks[len(m.Chunks)-1].FP) // the last chunk lies in the last part
			}
			sc, err := gn.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sc.Quarantined, []container.ID{m.ID}) {
				t.Fatalf("quarantined %v, want %s", sc.Quarantined, m.ID)
			}
			for _, k := range keys {
				if _, err := mem.Head(k); err == nil {
					t.Errorf("%s is still live", k)
				}
				if _, err := mem.Head(container.QuarantinePrefix + strings.TrimPrefix(strings.Replace(k, m.Payload.String(), m.ID.String(), 1), container.Prefix)); err != nil {
					t.Errorf("%s was not quarantined: %v", k, err)
				}
			}
			if left, _ := mem.List(container.QuarantinePrefix); len(left) != len(keys) {
				t.Errorf("quarantine holds %v, want the %d objects the container had", left, len(keys))
			}
		})
	}
}
