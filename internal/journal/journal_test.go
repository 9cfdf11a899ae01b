package journal

import (
	"reflect"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

func TestRecordRoundTrip(t *testing.T) {
	mem := oss.NewMem()
	js, _, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint.OfBytes([]byte("chunk"))
	rec := &Record{
		Kind:    KindSCC,
		FileID:  "f",
		Version: 3,
		Sparse:  []uint64{1, 2},
		New:     []uint64{9},
	}
	rec.SetMoved(map[fingerprint.FP]container.ID{fp: 9})
	key, err := js.Commit(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := js.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, rec)
	}
	moved, err := got.MovedFPs()
	if err != nil {
		t.Fatal(err)
	}
	if moved[fp] != 9 {
		t.Fatalf("moved = %v", moved)
	}
	if err := js.Remove(key); err != nil {
		t.Fatal(err)
	}
	keys, err := js.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("records survive removal: %v", keys)
	}
	// Removing again (replay racing a peer) is not an error.
	if err := js.Remove(key); err != nil {
		t.Fatal(err)
	}
}

func TestSequencesResumeAndOrder(t *testing.T) {
	mem := oss.NewMem()
	js, pending, _ := Open(mem)
	if len(pending) != 0 {
		t.Fatalf("an empty namespace opened with pending records %v", pending)
	}
	k1, _ := js.Commit(&Record{Kind: KindGC, FileID: "a"})
	k2, _ := js.Commit(&Record{Kind: KindGC, FileID: "b"})

	// A reopened journal hands over what survives, in commit order, and
	// must not reuse live sequence numbers.
	js2, pending, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pending, []string{k1, k2}) {
		t.Fatalf("pending at open = %v, want %v", pending, []string{k1, k2})
	}
	k3, _ := js2.Commit(&Record{Kind: KindGC, FileID: "c"})
	keys, err := js2.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{k1, k2, k3}) {
		t.Fatalf("list = %v, want commit order %v", keys, []string{k1, k2, k3})
	}
}
