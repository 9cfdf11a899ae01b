package core

import (
	"testing"

	"slimstore/internal/chunker"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

func TestDefaultConfigIsValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.ChunkParams.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRepo(oss.NewMem(), cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFillDefaults(t *testing.T) {
	// A zero config opens with every default applied.
	repo, err := OpenRepo(oss.NewMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := repo.Config
	d := DefaultConfig()
	if cfg.ChunkAlgo != d.ChunkAlgo || cfg.SegmentChunks != d.SegmentChunks ||
		cfg.SampleRatio != d.SampleRatio || cfg.MergeThreshold != d.MergeThreshold ||
		cfg.ContainerCapacity != d.ContainerCapacity || cfg.RestorePolicy != d.RestorePolicy {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// Partial overrides survive.
	repo2, err := OpenRepo(oss.NewMem(), Config{ChunkAlgo: "rabin", SampleRatio: 8})
	if err != nil {
		t.Fatal(err)
	}
	if repo2.Config.ChunkAlgo != "rabin" || repo2.Config.SampleRatio != 8 {
		t.Fatalf("overrides lost: %+v", repo2.Config)
	}
	if repo2.Config.SegmentChunks != d.SegmentChunks {
		t.Fatal("unset fields not defaulted")
	}
}

func TestOpenRepoRejectsBadConfig(t *testing.T) {
	if _, err := OpenRepo(oss.NewMem(), Config{ChunkAlgo: "nope"}); err == nil {
		t.Fatal("unknown chunk algorithm accepted")
	}
	bad := Config{ChunkParams: chunker.Params{Min: 100, Avg: 50, Max: 10}}
	if _, err := OpenRepo(oss.NewMem(), bad); err == nil {
		t.Fatal("invalid chunk params accepted")
	}
	// An algorithm nobody defined must not open: Of would have to guess a
	// hash and Fingerprint a price for it.
	for _, alg := range []fingerprint.Algorithm{-1, fingerprint.SHA256 + 1} {
		if _, err := OpenRepo(oss.NewMem(), Config{FingerprintAlg: alg}); err == nil {
			t.Fatalf("fingerprint algorithm %d accepted", int(alg))
		}
	}
}

func TestMeteredViews(t *testing.T) {
	repo, err := OpenRepo(oss.NewMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	acct := simclock.NewAccount()
	m := repo.Metered(acct)
	if err := m.Put("x", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if acct.IO().Writes != 1 {
		t.Fatal("metered view did not charge the account")
	}
	// Container view shares the allocator with the base store.
	cv := repo.ContainersFor(acct)
	id1 := repo.Containers.AllocateID()
	id2 := cv.AllocateID()
	if id2 != id1+1 {
		t.Fatalf("views do not share the allocator: %v then %v", id1, id2)
	}
}

func TestCutterAndFingerprint(t *testing.T) {
	repo, err := OpenRepo(oss.NewMem(), Config{ChunkAlgo: "gear"})
	if err != nil {
		t.Fatal(err)
	}
	if got := repo.Cutter().Name(); got != "gear" {
		t.Fatalf("Cutter = %s", got)
	}
	acct := simclock.NewAccount()
	data := make([]byte, 10000)
	fp := repo.Fingerprint(acct, data)
	if fp != fingerprint.Of(fingerprint.SHA1, data) {
		t.Fatal("Fingerprint does not match configured algorithm")
	}
	if acct.CPUPhase(simclock.PhaseFingerprint) == 0 {
		t.Fatal("fingerprinting not charged")
	}
	// SHA-256 variant charges the dearer rate.
	repo2, _ := OpenRepo(oss.NewMem(), Config{FingerprintAlg: fingerprint.SHA256})
	acct2 := simclock.NewAccount()
	fp2 := repo2.Fingerprint(acct2, data)
	if fp2 != fingerprint.Of(fingerprint.SHA256, data) {
		t.Fatal("SHA256 config ignored")
	}
	if acct2.CPUPhase(simclock.PhaseFingerprint) <= acct.CPUPhase(simclock.PhaseFingerprint) {
		t.Fatal("SHA256 should cost more than SHA1")
	}
}
