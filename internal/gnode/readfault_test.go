package gnode

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

// A read that fails on the way to an object says nothing about the object:
// a pass that meets one must fail, change nothing, and succeed once the
// fault clears. A sweep that took an unreadable meta for a container gone
// would drop a live one; a scrub that took it for damage would quarantine
// one (DESIGN.md §6).

// assertStoreUnchanged fails the test if mem no longer holds exactly what
// before, a Clone of it, does, naming an object that changed.
func assertStoreUnchanged(t *testing.T, what string, mem, before *oss.Mem) {
	t.Helper()
	was, is := prefixDump(t, before, ""), prefixDump(t, mem, "")
	if reflect.DeepEqual(was, is) {
		return
	}
	for k, v := range is {
		if old, ok := was[k]; !ok || !bytes.Equal(old, v) {
			t.Fatalf("%s changed the store: %s was put", what, k)
		}
	}
	t.Fatalf("%s changed the store: %d objects, were %d", what, len(is), len(was))
}

// failOnce is a layer that fails the first request match accepts once armed.
func failOnce(armed *atomic.Bool, match func(oss.Op) bool) oss.Layer {
	return oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if match(op) && armed.CompareAndSwap(true, false) {
			return op, errors.Join(oss.ErrInjected, errors.New(op.String()))
		}
		return oss.Do(next, op)
	})
}

// TestFullSweepFailsOnMetaOutage: a version no optimize has run over names
// its containers directly, and the index holds none of its chunks. While
// GETs of one of its metas fail — until the sweep lists the containers — the
// sweep must fail naming the meta, not take the container for gone and drop
// it; with the fault cleared the version restores and a sweep keeps it.
func TestFullSweepFailsOnMetaOutage(t *testing.T) {
	cfg := testConfig()
	ln, _, repo, mem := setup(t, cfg)
	data := genData(34, 512<<10)
	st, err := ln.Backup("f", data)
	if err != nil {
		t.Fatal(err)
	}
	victim := st.NewContainers[0]
	before := mem.Clone()

	var outage atomic.Bool
	fault := oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		switch {
		case op.Kind == oss.KindList && op.Key == container.Prefix:
			outage.Store(false)
		case op.Kind == oss.KindGet && op.Key == container.MetaKey(victim) && outage.Load():
			return op, errors.Join(oss.ErrInjected, errors.New(op.String()))
		}
		return oss.Do(next, op)
	})
	// A cold meta cache, and the outage from after the open, which lists the
	// containers too.
	_, gn := openOver(t, oss.With(mem, fault), repo.Config, -1)
	outage.Store(true)
	if _, err := gn.FullSweep(); err == nil || !strings.Contains(err.Error(), container.MetaKey(victim)) {
		t.Fatalf("sweep under an outage of %s returned %v, want an error naming it", container.MetaKey(victim), err)
	}
	assertStoreUnchanged(t, "the failed sweep", mem, before)

	repo2, gn2 := openOver(t, mem, repo.Config, -1)
	if _, err := gn2.FullSweep(); err != nil {
		t.Fatal(err)
	}
	if got := restoreBytes(t, lnode.New(repo2, "l1"), "f", 0); !bytes.Equal(got, data) {
		t.Fatal("f v0 restores wrong bytes after the sweep")
	}
}

// TestScrubReadFaultQuarantinesNothing: one read failing during a scrub — a
// healthy container's meta, its payload, or the donor copy a repair reads —
// fails the scrub, which quarantines nothing and purges no index entry: the
// store is as it was. With the fault cleared a scrub repairs what is damaged
// and loses nothing, and every version restores.
//
// The fixture: file a, reverse-deduplicated (the index names a's chunks),
// and file b, which repeats a's first half in containers of its own.
func TestScrubReadFaultQuarantinesNothing(t *testing.T) {
	cfg := testConfig()
	cfg.SimilarityMinScore = 1.1 // b is stored beside a, not deduplicated against it
	ln, gn, repo, mem := setup(t, cfg)
	a := genData(35, 512<<10)
	b := append(bytes.Clone(a[:256<<10]), genData(36, 256<<10)...)
	stA, err := ln.Backup("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gn.ReverseDedup(stA.NewContainers); err != nil {
		t.Fatal(err)
	}
	stB, err := ln.Backup("b", b)
	if err != nil {
		t.Fatal(err)
	}

	// victim is a's first container; fp one of its chunks that b holds too,
	// in donor.
	victim := stA.NewContainers[0]
	vm, err := repo.Containers.ReadMeta(victim)
	if err != nil {
		t.Fatal(err)
	}
	var fp fingerprint.FP
	donor := container.Invalid
	for _, id := range stB.NewContainers {
		dm, err := repo.Containers.ReadMeta(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, cm := range vm.Chunks {
			if dm.Find(cm.FP) != nil {
				fp, donor = cm.FP, id
				break
			}
		}
		if donor != container.Invalid {
			break
		}
	}
	if donor == container.Invalid {
		t.Fatal("fixture: b holds no chunk of a's first container")
	}
	dm, err := repo.Containers.ReadMeta(donor)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		rot   bool // rot fp in victim, so that the scrub repairs it from donor
		match func(oss.Op) bool
	}{
		{"meta", false, func(op oss.Op) bool { return op.Kind == oss.KindGet && op.Key == container.MetaKey(victim) }},
		{"payload", false, func(op oss.Op) bool { return op.Kind == oss.KindGet && op.Key == container.DataKey(vm.Payload) }},
		{"donor", true, func(op oss.Op) bool { return op.Kind == oss.KindGetRange && op.Key == container.DataKey(dm.Payload) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := mem.Clone()
			if tc.rot {
				key := container.DataKey(vm.Payload)
				raw, err := mem.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				cm := vm.Find(fp)
				raw = bytes.Clone(raw)
				raw[cm.Offset+cm.Size/2] ^= 0xFF
				if err := mem.Put(key, raw); err != nil {
					t.Fatal(err)
				}
			}
			before := mem.Clone()
			var armed atomic.Bool
			armed.Store(true)
			_, gn := openOver(t, oss.With(mem, failOnce(&armed, tc.match)), cfg, -1) // a cold meta cache
			if sc, err := gn.Scrub(); !errors.Is(err, oss.ErrInjected) {
				t.Fatalf("scrub under one failed read returned %+v, %v; want the injected fault", sc, err)
			}
			if armed.Load() {
				t.Fatal("fixture: the scrub never made the read")
			}
			assertStoreUnchanged(t, "the failed scrub", mem, before)

			repo2, gn2 := openOver(t, mem, cfg, -1)
			sc, err := gn2.Scrub()
			if err != nil {
				t.Fatal(err)
			}
			if !sc.Clean() || sc.IndexPurged != 0 || tc.rot != (sc.RepairedChunks == 1) {
				t.Fatalf("scrub once the fault cleared: %+v", sc)
			}
			ln2 := lnode.New(repo2, "l1")
			for f, want := range map[string][]byte{"a": a, "b": b} {
				if got := restoreBytes(t, ln2, f, 0); !bytes.Equal(got, want) {
					t.Fatalf("%s v0 restores wrong bytes", f)
				}
			}
		})
	}
}
