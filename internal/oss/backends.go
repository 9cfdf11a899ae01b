package oss

import (
	"fmt"

	"slimstore/internal/simclock"
)

// Backend is one fault-isolated OSS backend and its cost model. The
// erasure-coded redundancy tier (internal/ec) writes one shard of every
// stripe to each backend.
type Backend struct {
	// Name identifies the backend in errors and stats ("b0", "b1", …).
	Name string
	// Store is the backend's I/O surface: a Prefixed view of the base
	// store, so all backends persist in one physical store.
	Store Store
	// Costs is the latency/bandwidth model the tier charges this
	// backend's shard reads and writes with.
	Costs simclock.Costs
}

// BackendPrefix returns the key namespace of backend i on the shared base
// store ("ec/b<i>/"): what a Faulty over the base store takes down to
// black out that backend alone.
func BackendPrefix(i int) string { return fmt.Sprintf("ec/b%d/", i) }

// NewBackendSet carves n backends out of one base store, backend i living
// under BackendPrefix(i), all charged at costs.
func NewBackendSet(base Store, n int, costs simclock.Costs) []*Backend {
	set := make([]*Backend, n)
	for i := 0; i < n; i++ {
		set[i] = &Backend{
			Name:  fmt.Sprintf("b%d", i),
			Store: NewPrefixed(base, BackendPrefix(i)),
			Costs: costs,
		}
	}
	return set
}
