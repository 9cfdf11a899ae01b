package globalindex

import (
	"fmt"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

func fpN(n int) fingerprint.FP {
	return fingerprint.OfBytes([]byte(fmt.Sprintf("chunk-%d", n)))
}

// put writes one mapping (a deletion when id is container.Invalid): a
// PutBatch of one.
func put(t *testing.T, x *Index, fp fingerprint.FP, id container.ID) {
	t.Helper()
	if err := x.PutBatch([]Entry{{FP: fp, ID: id}}); err != nil {
		t.Fatal(err)
	}
}

// get resolves one fingerprint: a GetBatch of one.
func get(t *testing.T, x *Index, fp fingerprint.FP) (container.ID, bool) {
	t.Helper()
	ids, found, _, err := x.GetBatch([]fingerprint.FP{fp})
	if err != nil {
		t.Fatal(err)
	}
	return ids[0], found[0]
}

func TestPutGetDelete(t *testing.T) {
	x, err := Open(oss.NewMem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		put(t, x, fpN(i), container.ID(i+1))
	}
	for i := 0; i < 100; i++ {
		if id, ok := get(t, x, fpN(i)); !ok || id != container.ID(i+1) {
			t.Fatalf("Get(%d) = %v, %v", i, id, ok)
		}
	}
	// Relocation (reverse dedup moves the pointer to the new container).
	put(t, x, fpN(5), 999)
	if id, ok := get(t, x, fpN(5)); !ok || id != 999 {
		t.Fatalf("after relocation Get = %v, %v", id, ok)
	}
	// Delete: an entry naming no container.
	put(t, x, fpN(7), container.Invalid)
	if _, ok := get(t, x, fpN(7)); ok {
		t.Fatal("deleted fingerprint still resolves")
	}
	for i := 1000; i < 1500; i++ {
		if _, ok := get(t, x, fpN(i)); ok {
			t.Fatalf("phantom hit for %d", i)
		}
	}
}

// TestReopenServesEveryEntry: a reopened index holds what the closed one
// did, and resolves every fingerprint from the recovered engine.
func TestReopenServesEveryEntry(t *testing.T) {
	mem := oss.NewMem()
	x, _ := Open(mem, Options{})
	for i := 0; i < 50; i++ {
		put(t, x, fpN(i), container.ID(i+1))
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	x2, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if x2.Stats().Entries != 50 {
		t.Fatalf("reopened Entries = %d", x2.Stats().Entries)
	}
	for i := 0; i < 50; i++ {
		if id, ok := get(t, x2, fpN(i)); !ok || id != container.ID(i+1) {
			t.Fatalf("reopened Get(%d) = %v, %v", i, id, ok)
		}
	}
}

func TestScan(t *testing.T) {
	x, _ := Open(oss.NewMem(), Options{})
	want := map[fingerprint.FP]container.ID{}
	for i := 0; i < 30; i++ {
		want[fpN(i)] = container.ID(i + 1)
		put(t, x, fpN(i), container.ID(i+1))
	}
	got := map[fingerprint.FP]container.ID{}
	err := x.Scan(func(fp fingerprint.FP, id container.ID) bool {
		got[fp] = id
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("scan found %d entries, want %d", len(got), len(want))
	}
	for fp, id := range want {
		if got[fp] != id {
			t.Fatalf("scan mismatch for %s", fp.Short())
		}
	}
}
