package core

import "slimstore/internal/pipe"

// This file is the offline-maintenance worker pool (DESIGN.md §8). It
// lives in core, not gnode, because core's own shared steps (ReadMetas,
// DropContainers) fan out too.

// ForEach runs fn(0..n-1) across the maintenance worker pool
// (pipe.FanOut at the Config.MaintWorkers width: 0 → default, negative →
// serial).
func (r *Repo) ForEach(n int, fn func(int) error) error {
	return pipe.FanOut(n, r.Config.MaintWorkers, fn)
}

// ForEachOrdered is ForEach for work whose results must be consumed in
// index order (pipe.ForEachOrdered at the same width).
func (r *Repo) ForEachOrdered(n int, produce, consume func(int) error) error {
	return pipe.ForEachOrdered(n, r.Config.MaintWorkers, produce, consume)
}
