package oss_test

import (
	"testing"

	"slimstore/internal/ec"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// TestErasureCodedStores runs the Store contract over the two
// implementations that live above this package: the striped tier, and the
// router with some of the contract's keys striped and the rest plain —
// bare, and metered as a repository's jobs see it.
func TestErasureCodedStores(t *testing.T) {
	newTier := func(base oss.Store) *ec.Store {
		tier, err := ec.NewStore(oss.NewBackendSet(base, 3, simclock.DefaultCosts()), 2, 1, simclock.DefaultCosts())
		if err != nil {
			t.Fatal(err)
		}
		return tier
	}
	t.Run("Store", func(t *testing.T) { oss.StoreUnderTest(t, newTier(oss.NewMem())) })
	t.Run("Router", func(t *testing.T) {
		mem := oss.NewMem()
		oss.StoreUnderTest(t, ec.NewRouter(newTier(mem), mem, "a/", "p/"))
	})
	t.Run("MeteredRouter", func(t *testing.T) { // core.Repo.ContainersFor, and a Metered over all of it
		mem, acct := oss.NewMem(), simclock.NewAccount()
		router := ec.NewRouter(newTier(mem).WithAccount(acct), oss.NewMetered(mem, simclock.DefaultCosts(), acct), "a/", "p/")
		oss.StoreUnderTest(t, oss.NewMetered(router, simclock.DefaultCosts(), acct))
	})
}
