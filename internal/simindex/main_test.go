package simindex

import (
	"testing"

	"slimstore/internal/leakcheck"
)

// TestMain holds the package's tests to the goroutine-settle check
// (DESIGN.md §9): when they are done, so is every goroutine they started.
func TestMain(m *testing.M) { leakcheck.Main(m) }
