package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"slimstore/internal/ec"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

func TestECConfigDefaults(t *testing.T) {
	// EC off → no tier.
	repo, err := OpenRepo(oss.NewMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if repo.EC != nil || repo.ECFor(simclock.NewAccount()) != nil {
		t.Fatal("EC tier armed without ECDataShards")
	}
}

// TestECWiring opens a repo with the redundancy tier armed and checks
// container-namespace objects stripe across fault-isolated backends while
// everything else stays plain.
func TestECWiring(t *testing.T) {
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	cfg := Config{ECDataShards: 2, ECParityShards: 1}
	repo, err := OpenRepo(faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if repo.EC == nil || repo.EC.Codec().K() != 2 || repo.EC.Codec().M() != 1 {
		t.Fatalf("EC tier not armed as RS(2+1)")
	}

	acct := simclock.NewAccount()
	cv := repo.ContainersFor(acct)
	id := cv.AllocateID()
	data := bytes.Repeat([]byte("chunk"), 4000)
	key := "containers/" + id.String() + ".data"
	tier := repo.ECFor(acct)
	if err := tier.Put(key, data); err != nil {
		t.Fatal(err)
	}
	// The logical key exists only as shards, never as a plain object.
	if _, err := mem.Get(key); !errors.Is(err, oss.ErrNotFound) {
		t.Fatal("container object written as a plain base object")
	}
	for i := 0; i < 3; i++ {
		if _, err := mem.Get(oss.BackendPrefix(i) + key); err != nil {
			t.Fatalf("backend %d holds no shard: %v", i, err)
		}
	}
	// One backend dark: the tier still serves the exact bytes and charges
	// reconstruction CPU on the account.
	faulty.SetOutage(oss.BackendPrefix(2), true)
	got, err := tier.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded read through repo tier: %v", err)
	}
	faulty.SetOutage(oss.BackendPrefix(2), false)

	// Non-container keys bypass the tier entirely.
	if err := repo.Metered(acct).Put("recipes/f/1", []byte("r")); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Get("recipes/f/1"); err != nil {
		t.Fatalf("plain key striped or lost: %v", err)
	}
	keys, err := mem.List("ec/")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, "ec/b") {
			t.Fatalf("stray physical key %s", k)
		}
	}
	// Reopening over the same base store sees the same stripes.
	repo2, err := OpenRepo(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err = repo2.EC.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reopened repo cannot read stripe: %v", err)
	}
	var _ *ec.Store = repo2.EC
}
