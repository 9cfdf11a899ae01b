package main

import (
	"fmt"

	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/kvstore"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/workload"
)

// clients is the closed-loop client count of the engine workload, and the
// engine's L-node count. It is fixed at the 2 vCPUs the workloads are
// sized for rather than read from the host, so the same command measures
// the same thing everywhere.
const clients = 2

// spec is one workload: a dataset shape, a store regime and a phase list.
// Sizes are fixed here (and restated in README.md), not scaled by host.
type spec struct {
	name string
	why  string
	// gen builds the dataset spec for (files, fileBytes).
	gen                        func(files, fileBytes int) workload.Spec
	files, fileBytes, versions int
	// cloud makes the store really sleep simclock.DefaultCosts() per
	// request; otherwise OSS costs next to nothing and CPU decides.
	cloud bool
	// engine drives jobs through jobs.Engine from `clients` concurrent
	// callers instead of calling one L-node and the G-node serially.
	engine bool
	// keepLast > 0 deletes version v-keepLast after backing up v.
	keepLast int
	// scrubEvery > 0 scrubs after every n-th version instead of once at
	// the end; audit also runs a full mark-and-sweep before the restores.
	scrubEvery int
	audit      bool
	// kv overrides Config.GlobalKV — the one configuration change any
	// workload makes to core.DefaultConfig().
	kv kvstore.Options
	// datasets is the length of the dataset cycle: rep n runs on dataset
	// n mod datasets, each generated from (seed, index). How fast a chain
	// restores or compacts depends on where its mutations happened to land,
	// so one dataset per run would make every metric a property of the
	// seed; a run does at least one rep per dataset, and the count metrics
	// are taken over exactly one rep of each.
	datasets int
}

var specs = []spec{
	{
		name: "sdb-cpu",
		why:  "S-DB chain on a free in-memory store: cut, hash, probe, pack and restore-emit do nearly all the work, so ingest- and restore-path CPU optimisations show here and OSS-side ones do not",
		gen:  workload.SDB, files: 2, fileBytes: 16 << 20, versions: 6,
		datasets: 16,
	},
	{
		name: "sdb-cloud",
		why:  "sdb-cpu's bytes and phases on a store that really sleeps the simclock OSS costs: round trips and bandwidth dominate, so prefetch, upload overlap and G-node fan-out decide it, not hashing",
		gen:  workload.SDB, files: 2, fileBytes: 16 << 20, versions: 6,
		cloud: true, datasets: 3,
	},
	{
		name: "rdata-jobs",
		why:  "1 MiB R-Data files through jobs.Engine from 2 closed-loop clients on the sleeping store, restores beside backups: per-job fixed costs, locks and the warm shared cache dominate, not bytes",
		gen:  workload.RData, files: 64, fileBytes: 1 << 20, versions: 4,
		cloud: true, engine: true, datasets: 1,
	},
	{
		name: "retention-churn",
		why:  "12-version S-DB chain with keep-last-4 deletion, scrubs and an audit, index several times its memtable: G-node, globalindex, kvstore flush/compaction and container rewrites do most of the work",
		gen:  workload.SDB, files: 4, fileBytes: 8 << 20, versions: 12,
		keepLast: 4, scrubEvery: 4, audit: true, datasets: 8,
		kv: kvstore.Options{MemtableBytes: 128 << 10, BlockCacheBytes: 512 << 10},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// smoke shrinks a workload to run end to end in about a second (tests and
// -smoke): same phases, same checks, tiny files.
func (s spec) smoke() spec {
	if s.engine {
		s.files, s.fileBytes = 4, 256<<10
	} else {
		s.files, s.fileBytes = 2, 1<<20
	}
	s.datasets = 1
	return s
}

// config is the system configuration the workload runs under.
func (s spec) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.GlobalKV = s.kv
	return cfg
}

// oldestRetained is the first version still stored when the chain ends.
func (s spec) oldestRetained() int {
	if s.keepLast > 0 && s.versions > s.keepLast {
		return s.versions - s.keepLast
	}
	return 0
}

// dataset is every version of every file, generated before the rep that
// uses it so that no timed region contains generation.
type dataset struct {
	ids      []string
	versions [][][]byte // [file][version]
}

// generate builds dataset idx of the cycle the seed defines.
func generate(s spec, seed int64, idx int) *dataset {
	ws := s.gen(s.files, s.fileBytes)
	ws.Versions = s.versions
	ws.Seed = seed*1000 + int64(idx)
	g := workload.New(ws)
	d := &dataset{ids: g.FileIDs(), versions: make([][][]byte, s.files)}
	for f := range d.versions {
		vs := make([][]byte, s.versions)
		vs[0] = g.Base(f)
		for v := 1; v < s.versions; v++ {
			vs[v] = g.Next(f, v, vs[v-1]) // Next copies; vs[v-1] stays intact
		}
		d.versions[f] = vs
	}
	return d
}

// bytesOf sums the sizes of versions [from, to] of every file.
func (d *dataset) bytesOf(from, to int) int64 {
	var n int64
	for _, vs := range d.versions {
		for v := from; v <= to; v++ {
			n += int64(len(vs[v]))
		}
	}
	return n
}

// system is the deployment assembled the way slimstore.Open does it, with
// the layer handles kept.
type system struct {
	repo *core.Repo
	l    *lnode.LNode
	g    *gnode.GNode
}

func openSystem(store oss.Store, cfg core.Config) (*system, error) {
	repo, err := core.OpenRepo(store, cfg)
	if err != nil {
		return nil, fmt.Errorf("open repo: %w", err)
	}
	return &system{repo: repo, l: lnode.New(repo, "L0"), g: gnode.New(repo)}, nil
}

// close stops the L-node's workers and makes the global index durable, so
// a later handle over the same store sees everything this one wrote.
func (s *system) close() error {
	s.l.Close()
	return s.repo.Global.Close()
}
