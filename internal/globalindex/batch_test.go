package globalindex

import (
	"math/rand"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
)

// Property: PutBatch+GetBatch over many entries behave exactly like
// batches of one — same visible mappings, same held-entry count, and the
// same number of misses.
func TestBatchMatchesSingles(t *testing.T) {
	var opts Options
	single, err := Open(oss.NewMem(), opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Open(oss.NewMem(), opts)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	var pending []Entry
	for i := 0; i < 600; i++ {
		// Overlapping fingerprints force relocations.
		e := Entry{FP: fpN(rng.Intn(250)), ID: container.ID(rng.Intn(40) + 1)}
		put(t, single, e.FP, e.ID)
		pending = append(pending, e)
		if len(pending) >= 53 {
			if err := batched.PutBatch(pending); err != nil {
				t.Fatal(err)
			}
			pending = pending[:0]
		}
	}
	if err := batched.PutBatch(pending); err != nil {
		t.Fatal(err)
	}

	ss, bs := single.Stats(), batched.Stats()
	if ss.Entries != bs.Entries {
		t.Fatalf("held entries diverge: singles %d, batched %d", ss.Entries, bs.Entries)
	}
	if ss.KV.Puts != bs.KV.Puts {
		t.Fatalf("kv puts diverge: singles %d, batched %d", ss.KV.Puts, bs.KV.Puts)
	}

	// Dump both indexes; they must agree key for key.
	dump := func(x *Index) map[fingerprint.FP]container.ID {
		m := map[fingerprint.FP]container.ID{}
		if err := x.Scan(func(fp fingerprint.FP, id container.ID) bool {
			m[fp] = id
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	sm, bm := dump(single), dump(batched)
	if len(sm) != len(bm) {
		t.Fatalf("index sizes diverge: singles %d, batched %d", len(sm), len(bm))
	}
	for fp, id := range sm {
		if bm[fp] != id {
			t.Fatalf("fp %s: singles → %d, batched → %d", fp.Short(), id, bm[fp])
		}
	}

	// Probe a mix of present and absent fingerprints both ways on the
	// batched index, and compare against singles lookups: same answers,
	// same miss count.
	var fps []fingerprint.FP
	for i := 0; i < 400; i++ {
		fps = append(fps, fpN(i)) // 250 present at most, rest absent
	}
	ids, found, misses, err := batched.GetBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	singleMisses := 0
	for i, fp := range fps {
		id, ok := get(t, single, fp)
		if !ok {
			singleMisses++
		}
		if ok != found[i] || (ok && id != ids[i]) {
			t.Fatalf("fp %s: GetBatch = (%d,%v), Get = (%d,%v)", fp.Short(), ids[i], found[i], id, ok)
		}
	}
	if misses != singleMisses {
		t.Fatalf("misses diverge: GetBatch %d, singles %d", misses, singleMisses)
	}
}

func TestGetBatchEmptyAndUnknown(t *testing.T) {
	x, err := Open(oss.NewMem(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, found, misses, err := x.GetBatch(nil)
	if err != nil || len(ids) != 0 || len(found) != 0 || misses != 0 {
		t.Fatalf("empty GetBatch = %v %v %d %v", ids, found, misses, err)
	}
	if err := x.PutBatch(nil); err != nil {
		t.Fatal(err)
	}
	// All-absent batch: every lookup misses.
	var fps []fingerprint.FP
	for i := 0; i < 50; i++ {
		fps = append(fps, fpN(i))
	}
	_, found, misses, err = x.GetBatch(fps)
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range found {
		if ok {
			t.Fatalf("absent fp %d reported found", i)
		}
	}
	if misses != len(fps) {
		t.Fatalf("empty index reported %d misses of %d lookups", misses, len(fps))
	}
}
