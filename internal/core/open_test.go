package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/oss"
)

// TestOpenReadsNoIndexTable: opening a repository issues the same requests
// whether its global index holds n entries in flushed tables or 10n, and
// none of them reads an index table. Every entry still resolves afterwards.
func TestOpenReadsNoIndexTable(t *testing.T) {
	var opens [][]string
	for _, n := range []int{400, 4000} {
		mem := oss.NewMem()
		if _, err := OpenRepo(mem, Config{}); err != nil {
			t.Fatal(err)
		}
		gi, err := globalindex.Open(mem, globalindex.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fps := make([]fingerprint.FP, n)
		entries := make([]globalindex.Entry, n)
		for i := range fps {
			fps[i] = fingerprint.OfBytes([]byte(fmt.Sprintf("chunk-%d", i)))
			entries[i] = globalindex.Entry{FP: fps[i], ID: container.ID(1 + i%97)}
		}
		if err := gi.PutBatch(entries); err != nil {
			t.Fatal(err)
		}
		if err := gi.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := gi.Close(); err != nil {
			t.Fatal(err)
		}

		var rec oss.Recorder
		r, err := OpenRepo(oss.With(mem, &rec), Config{})
		if err != nil {
			t.Fatal(err)
		}
		var ops []string
		for _, q := range rec.Take() {
			if (q.Kind == oss.KindGet || q.Kind == oss.KindGetRange) && strings.HasPrefix(q.Key, "gidx/") && strings.Contains(q.Key, "/sst/") {
				t.Fatalf("%d entries: open read index table %s", n, q.Op)
			}
			ops = append(ops, q.Op.String())
		}
		slices.Sort(ops) // the container store lists its two namespaces side by side
		opens = append(opens, ops)
		if st := r.Global.Stats(); st.Entries != int64(n) || st.KV.TablesLive != 1 {
			t.Fatalf("%d entries: the index holds %d in %d tables, want all in one", n, st.Entries, st.KV.TablesLive)
		}

		ids, found, misses, err := r.Global.GetBatch(fps)
		if err != nil {
			t.Fatal(err)
		}
		if misses != 0 {
			t.Fatalf("%d entries: %d fingerprints do not resolve", n, misses)
		}
		for i := range fps {
			if !found[i] || ids[i] != entries[i].ID {
				t.Fatalf("%d entries: fingerprint %d resolves to %v, %v, want %v", n, i, ids[i], found[i], entries[i].ID)
			}
		}
	}
	if !reflect.DeepEqual(opens[0], opens[1]) {
		t.Fatalf("open over 10× the index entries issued different requests:\n%q\n%q", opens[0], opens[1])
	}
}
