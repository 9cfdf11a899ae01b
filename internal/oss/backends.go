package oss

import (
	"fmt"

	"slimstore/internal/simclock"
)

// Backend couples one fault-isolated simulated OSS backend with its fault
// injection surface and cost model. The erasure-coded redundancy tier
// (internal/ec) writes one shard of every stripe to each backend; chaos
// schedules reach the Faulty to take a whole backend down or rot shards.
type Backend struct {
	// Name identifies the backend in errors and stats ("b0", "b1", …).
	Name string
	// Store is the backend's I/O surface: a Faulty wrapper over a
	// Prefixed view of the base store, so faults are injected per
	// backend while all backends persist in one physical store.
	Store Store
	// Faulty is the injection surface behind Store.
	Faulty *Faulty
	// Costs is the latency/bandwidth model the tier charges this
	// backend's shard reads and writes with.
	Costs simclock.Costs
}

// BackendPrefix returns the key namespace of backend i on the shared base
// store ("ec/b<i>/").
func BackendPrefix(i int) string { return fmt.Sprintf("ec/b%d/", i) }

// NewBackendSet carves n fault-isolated backends out of one base store,
// backend i living under BackendPrefix(i) with its own Faulty injector and
// all charged at costs. Keeping all backends on one base store preserves
// the chaos harness's crash/reboot semantics: reopening the repo over the
// same base store resurrects every backend with faults cleared.
func NewBackendSet(base Store, n int, costs simclock.Costs) []*Backend {
	set := make([]*Backend, n)
	for i := 0; i < n; i++ {
		f := NewFaulty(NewPrefixed(base, BackendPrefix(i)))
		set[i] = &Backend{
			Name:   fmt.Sprintf("b%d", i),
			Store:  f,
			Faulty: f,
			Costs:  costs,
		}
	}
	return set
}
