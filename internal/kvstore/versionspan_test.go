package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"slimstore/internal/oss"
)

// Regression tests for stale reads when one key's version run spans an
// SST block boundary. Entries are laid out key ASC, seq DESC, so every
// block of the run past the first STARTS with the key but holds only its
// older versions; a point lookup that maps the key to the last block with
// firstKey <= key resolves to a stale version while Scan (a full merge)
// returns the newest. Get, GetMulti, and Scan must always agree.

func spanValue(k string, v int) []byte {
	buf := bytes.Repeat([]byte{0xab}, 2048)
	copy(buf, fmt.Sprintf("%s#%04d", k, v))
	return buf
}

func TestGetNewestAcrossBlockBoundary(t *testing.T) {
	b := newSSTBuilder()
	keys := []string{"alpha", "hot", "zeta"}
	const versions = 40
	for i, k := range keys {
		base := uint64(1000 * (i + 1))
		for v := versions; v >= 1; v-- {
			e := entry{key: []byte(k), seq: base + uint64(v), kind: kindPut, value: spanValue(k, v)}
			b.add(&e)
		}
	}
	obj := b.finish()

	mem := oss.NewMem()
	db, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	meta := tableMeta{
		Name:     "v.sst",
		Size:     int64(len(obj)),
		Count:    versions * len(keys),
		Smallest: []byte(keys[0]),
		Largest:  []byte(keys[len(keys)-1]),
	}
	if err := mem.Put(db.tableKey("v.sst"), obj); err != nil {
		t.Fatal(err)
	}
	r, err := db.openTable(meta)
	if err != nil {
		t.Fatal(err)
	}
	// The bug needs a version run to cross block boundaries: 40 versions
	// of ~2KB against 16KB blocks give every key a multi-block run.
	if len(r.index) < len(keys)+1 {
		t.Fatalf("only %d blocks, version runs do not span boundaries", len(r.index))
	}
	for _, k := range keys {
		got, ok, err := tableGet(db, meta, []byte(k))
		if err != nil || !ok {
			t.Fatalf("get(%s) = %v, %v", k, ok, err)
		}
		if want := spanValue(k, versions); !bytes.Equal(got, want) {
			t.Errorf("get(%s) returned a stale version %.12q..., want the newest %.12q...", k, got, want)
		}
	}
}

func TestDBGetMatchesScanManyVersions(t *testing.T) {
	mem := oss.NewMem()
	db, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	keys := []string{"k0", "k1", "k2", "k3"}
	const versions = 60
	for v := 1; v <= versions; v++ {
		for _, k := range keys {
			if err := db.Put([]byte(k), spanValue(k, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	// Scan merges every table in internal order and is the oracle for
	// "newest version wins".
	oracle := map[string][]byte{}
	err = db.Scan(nil, nil, func(key, value []byte) bool {
		oracle[string(key)] = append([]byte{}, value...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) != len(keys) {
		t.Fatalf("scan saw %d keys, want %d", len(oracle), len(keys))
	}

	for _, k := range keys {
		got, ok, err := db.Get([]byte(k))
		if err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", k, ok, err)
		}
		if !bytes.Equal(got, oracle[k]) {
			t.Errorf("Get(%s) = %.12q..., Scan says %.12q...", k, got, oracle[k])
		}
	}

	probe := [][]byte{[]byte("k0"), []byte("absent"), []byte("k1"), []byte("k2"), []byte("k3")}
	values, found, err := db.GetMulti(probe)
	if err != nil {
		t.Fatal(err)
	}
	if found[1] {
		t.Error("GetMulti found a key that was never written")
	}
	for i, k := range probe {
		if i == 1 {
			continue
		}
		if !found[i] {
			t.Fatalf("GetMulti missed %s", k)
		}
		if !bytes.Equal(values[i], oracle[string(k)]) {
			t.Errorf("GetMulti(%s) = %.12q..., Scan says %.12q...", k, values[i], oracle[string(k)])
		}
	}
}
