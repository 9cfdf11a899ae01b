package lnode

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
)

// These tests pin STEP 1's guess (DESIGN.md §13): a handle whose similarity
// mirror is loaded opens the newest version it holds a sketch of beside the
// catalog listing, and the listing decides. A guess the listing overrules
// must leave no trace: the backup writes the objects and reports the stats
// a cold handle's backup of the same input does.

// backupMatchesCold backs up data as fileID on the warm node n, whose
// repository is over mem, and the same input on a cold handle over a copy
// of mem taken just before; it fails t unless both leave the same objects,
// byte for byte, and report the same stats but for Account and Elapsed.
func backupMatchesCold(t *testing.T, mem *oss.Mem, n *LNode, cfg core.Config, fileID string, data []byte) *BackupStats {
	t.Helper()
	cold := mem.Clone()
	want, err := New(mustOpen(t, cold, cfg), "cold").Backup(fileID, data)
	if err != nil {
		t.Fatalf("cold handle: %v", err)
	}
	got, err := n.Backup(fileID, data)
	if err != nil {
		t.Fatalf("warm handle: %v", err)
	}
	for _, st := range []*BackupStats{got, want} {
		st.Account, st.Elapsed = nil, 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stats differ from a cold handle's:\ngot  %+v\nwant %+v", got, want)
	}
	gotKeys, _ := mem.List("")
	wantKeys, _ := cold.List("")
	if !reflect.DeepEqual(gotKeys, wantKeys) {
		t.Fatalf("objects differ from a cold handle's:\ngot  %v\nwant %v", gotKeys, wantKeys)
	}
	for _, k := range gotKeys {
		g, _ := mem.Get(k)
		w, _ := cold.Get(k)
		if !bytes.Equal(g, w) {
			t.Errorf("%s differs from a cold handle's", k)
		}
	}
	return got
}

// TestStaleGuessMatchesColdHandle: the mirror names a version the listing
// does not — (a) another handle committed a newer one, (b) the newest
// sketch is a backup's that failed before its catalog put, (c) another
// handle deleted the guessed version, (d) as (b), of the file's first
// version, so the listing names none — and a read fault on the wrong
// guess's objects is dropped with them.
func TestStaleGuessMatchesColdHandle(t *testing.T) {
	cfg := testConfig()
	v0 := genData(94, 1<<20)
	v1 := append(mutate(v0[:640<<10], 95, 10), genData(95, 512<<10)...)
	v2 := mutate(v1, 96, 20)
	uncommitted := func(t *testing.T, _ *oss.Mem, faulty *oss.Faulty, n *LNode) []byte {
		mustBackup(t, n, "f", v0)
		failCommit(t, faulty, n, 1, v1)
		return v1
	}
	for _, c := range []struct {
		name string
		// setup leaves the warm node's mirror guessing guess for "f" over
		// a catalog whose newest version is listed (-1: none), and returns
		// the input to back up next.
		setup          func(t *testing.T, mem *oss.Mem, faulty *oss.Faulty, n *LNode) []byte
		guess, listed  int
		faultOnGuessed bool
	}{
		{"newer-commit-elsewhere", func(t *testing.T, mem *oss.Mem, _ *oss.Faulty, n *LNode) []byte {
			mustBackup(t, n, "f", v0)
			mustBackup(t, New(mustOpen(t, mem, cfg), "other"), "f", v1)
			// The same bytes again: a backup on the listed base stores nothing,
			// so the two handles' container ID allocators cannot meet.
			return v1
		}, 0, 1, false},
		{"uncommitted-sketch", uncommitted, 1, 0, false},
		{"uncommitted-sketch,read-fault", uncommitted, 1, 0, true},
		{"deleted-elsewhere", func(t *testing.T, mem *oss.Mem, _ *oss.Faulty, n *LNode) []byte {
			mustBackup(t, n, "f", v0)
			mustBackup(t, n, "f", v1)
			if _, err := gnode.New(mustOpen(t, mem, cfg)).DeleteVersion("f", 1); err != nil {
				t.Fatal(err)
			}
			return v2
		}, 1, 0, false},
		{"uncommitted-first-version", func(t *testing.T, _ *oss.Mem, faulty *oss.Faulty, n *LNode) []byte {
			// Another file's backup loads the mirror.
			mustBackup(t, n, "g", genData(97, 256<<10))
			failCommit(t, faulty, n, 0, v0)
			return v1
		}, 0, -1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			mem := oss.NewMem()
			faulty := oss.NewFaulty(mem)
			repo := mustOpen(t, faulty, cfg)
			n := New(repo, "l0")
			data := c.setup(t, mem, faulty, n)
			if v, known := repo.SimIndex.Latest("f"); !known || v != c.guess {
				t.Fatalf("fixture: the mirror guesses v%d, %v; want v%d", v, known, c.guess)
			}
			if v, ok, err := repo.Recipes.LatestVersion("f"); err != nil || v != c.listed {
				t.Fatalf("fixture: the catalog lists v%d, %v, %v; want v%d", v, ok, err, c.listed)
			}
			if c.faultOnGuessed {
				faulty.FailGet(fmt.Sprintf("recipes/%x/%08d.index", "f", c.guess))
			}
			st := backupMatchesCold(t, mem, n, cfg, "f", data)
			if want := c.listed + 1; st.Version != want {
				t.Errorf("version %d, want %d", st.Version, want)
			}
			faulty.Clear()
			if err := restoreMatches(n, "f", st.Version, data); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func mustBackup(t *testing.T, n *LNode, fileID string, data []byte) {
	t.Helper()
	if _, err := n.Backup(fileID, data); err != nil {
		t.Fatal(err)
	}
}

// failCommit backs up version v of "f" on n with its catalog put failing,
// the backup's last put: everything but the commit lands, its sketch in
// the mirror too.
func failCommit(t *testing.T, faulty *oss.Faulty, n *LNode, v int, data []byte) {
	t.Helper()
	faulty.FailPut(fmt.Sprintf("catalog/%x/%08d.info", "f", v))
	if _, err := n.Backup("f", data); err == nil {
		t.Fatal("fixture: the backup with a failing catalog put succeeded")
	}
	faulty.Clear()
}
