// Package core wires SLIMSTORE's storage layer together (paper Fig 1): the
// container store, recipe store, similar file index, and global index, all
// residing on one OSS store, plus the system configuration shared by the
// L-node and G-node computing layers.
package core

import (
	"fmt"
	"sync/atomic"

	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/ec"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/kvstore"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
	"slimstore/internal/repl"
	"slimstore/internal/simclock"
	"slimstore/internal/simindex"
)

// Config holds every tunable of the system. The defaults reproduce the
// paper's evaluation setup (§VII-A).
//
// Seven fields are the repository's layout — FingerprintAlg, ChunkAlgo,
// ChunkParams, GlobalShards, GlobalReplicas, ECDataShards, ECParityShards —
// fixed in its header at creation. Opened with one of them zero a handle
// takes the repository's value; a non-zero value must equal it or the open
// is refused. Repo.Config reports the settled values.
type Config struct {
	// ChunkAlgo selects the CDC algorithm: "rabin", "gear", "fastcdc",
	// "fixed". Default "fastcdc".
	ChunkAlgo string
	// ChunkParams bound chunk sizes; default 4 KiB average (§VII-B).
	ChunkParams chunker.Params
	// FingerprintAlg selects the chunk hash. Default SHA-1 (§II).
	FingerprintAlg fingerprint.Algorithm

	// SegmentChunks is the number of consecutive chunks per segment
	// recipe. Default 256.
	SegmentChunks int
	// SampleRatio is R in the mod-R representative sampling (§IV-A).
	// Default 32.
	SampleRatio int
	// SimilarityMinScore is the minimum sketch resemblance for the
	// similar-file fallback of STEP 1. Default 0.1.
	SimilarityMinScore float64
	// DedupCacheSegments bounds how many prefetched segment recipes a
	// backup job keeps in its dedup cache (oldest evicted first).
	// Default 256; L-nodes are stateless, so this is the job's entire
	// index memory footprint.
	DedupCacheSegments int

	// SkipChunking enables history-aware skip chunking (§IV-B).
	SkipChunking bool
	// ChunkMerging enables history-aware chunk merging (§IV-C).
	ChunkMerging bool
	// MergeThreshold is the duplicateTimes value at which consecutive
	// duplicate chunks merge into a superchunk. Default 5 (§VII-B).
	MergeThreshold int
	// MaxSuperChunkBytes caps superchunk size. Default 2 MiB (§VII-E).
	MaxSuperChunkBytes int

	// ContainerCapacity is the container payload size. Default 4 MiB.
	ContainerCapacity int

	// SparseUtilization is the utilization below which a container
	// referenced by the current backup is recorded as sparse (§V-B).
	// Default 0.3.
	SparseUtilization float64

	// Restore cache sizing (§V-A). The FV cache's disk layer is held in
	// memory and its local-disk cost charged in virtual time
	// (Costs.DiskCachePerByte). Both budgets count chunk bytes and drive
	// every cache decision; they do not cap the process's memory, because
	// the fv and alacc caches keep chunks as views of the fetched
	// containers (cache.Config, DESIGN.md §14).
	CacheMemBytes  int64
	CacheDiskBytes int64
	LAWChunks      int
	// RestorePolicy selects the cache policy: "fv" (default), "opt",
	// "alacc", "lru".
	RestorePolicy string
	// PrefetchThreads is how many container reads a restore keeps in
	// flight at once — data-object requests, whichever containers they
	// belong to; the LAW prefetcher starts twice as many containers ahead
	// of the restore position. 0 disables prefetching (Table II).
	PrefetchThreads int
	// VerifyRestore re-fingerprints every restored chunk and fails the
	// restore on any mismatch (end-to-end integrity at fingerprinting
	// cost).
	VerifyRestore bool
	// SharedCacheBytes budgets the node-wide restore container cache
	// shared by all concurrent jobs (DESIGN.md §10): resident containers
	// never exceed it, the least recently used going first. 0 selects the
	// default (256 MiB); negative disables the cache and singleflight
	// entirely, making every job fetch for itself.
	SharedCacheBytes int64

	// MaintWorkers is the fan-out width of G-node offline maintenance
	// (reverse dedup scans, scrub verification, sweep marking, container
	// rewrites). 0 selects the default (4); negative runs serially. Any
	// width produces bit-identical results — it only changes wall-clock.
	MaintWorkers int

	// GlobalShards partitions the global fingerprint index by hash
	// prefix into this many G-shards (DESIGN.md §11); shard operations
	// proceed concurrently instead of serialising on one LSM mutex.
	// Default 1; maximum 256 (one shard per prefix byte value).
	GlobalShards int
	// GlobalReplicas replicates each index shard across 2f+1 kvstore
	// instances behind a quorum-committed batch log with leader
	// failover (internal/repl). Default 1: unreplicated, no
	// replication log.
	GlobalReplicas int
	// GlobalKV tunes each index shard's LSM engine; the shard map
	// manages key prefixes. Zero values select kvstore defaults.
	GlobalKV kvstore.Options

	// ECDataShards (K) and ECParityShards (M) arm the erasure-coded
	// redundancy tier (DESIGN.md §12): every container payload is striped
	// RS(K+M) across K+M fault-isolated OSS backends, surviving any M
	// backend losses. A repository created with 0 data shards has no tier
	// (single-copy containers); parity without data shards is refused.
	// K=1 with M>0 is (1+M)-replication.
	ECDataShards   int
	ECParityShards int

	// Costs is the virtual-time cost model.
	Costs simclock.Costs
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		ChunkAlgo:          "fastcdc",
		ChunkParams:        chunker.DefaultParams(),
		FingerprintAlg:     fingerprint.SHA1,
		SegmentChunks:      256,
		SampleRatio:        32,
		SimilarityMinScore: 0.1,
		DedupCacheSegments: 256,
		SkipChunking:       true,
		ChunkMerging:       true,
		MergeThreshold:     5,
		MaxSuperChunkBytes: 2 << 20,
		ContainerCapacity:  4 << 20,
		SparseUtilization:  0.3,
		CacheMemBytes:      256 << 20,
		CacheDiskBytes:     1 << 30,
		LAWChunks:          4096,
		RestorePolicy:      "fv",
		PrefetchThreads:    6,
		MaintWorkers:       4,
		Costs:              simclock.DefaultCosts(),
	}
}

// orDefault gives a field left unset (zero or negative) its default.
func orDefault[T int | int64 | float64 | string](v *T, d T) {
	var zero T
	if *v <= zero {
		*v = d
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	orDefault(&c.ChunkAlgo, d.ChunkAlgo)
	if c.ChunkParams == (chunker.Params{}) {
		c.ChunkParams = d.ChunkParams
	}
	orDefault(&c.SegmentChunks, d.SegmentChunks)
	orDefault(&c.SampleRatio, d.SampleRatio)
	orDefault(&c.SimilarityMinScore, d.SimilarityMinScore)
	orDefault(&c.DedupCacheSegments, d.DedupCacheSegments)
	orDefault(&c.MergeThreshold, d.MergeThreshold)
	orDefault(&c.MaxSuperChunkBytes, d.MaxSuperChunkBytes)
	orDefault(&c.ContainerCapacity, d.ContainerCapacity)
	orDefault(&c.SparseUtilization, d.SparseUtilization)
	orDefault(&c.CacheMemBytes, d.CacheMemBytes)
	orDefault(&c.LAWChunks, d.LAWChunks)
	orDefault(&c.RestorePolicy, d.RestorePolicy)
	if c.MaintWorkers == 0 {
		c.MaintWorkers = d.MaintWorkers
	}
	orDefault(&c.GlobalShards, 1)
	orDefault(&c.GlobalReplicas, 1)
	if c.Costs == (simclock.Costs{}) {
		c.Costs = d.Costs
	}
}

// Repo is the opened storage layer. One Repo is shared by every L-node and
// the G-node of a backup domain; all of its components are safe for
// concurrent use.
type Repo struct {
	Config Config

	// Base is the raw (unmetered) OSS store.
	Base oss.Store
	// Containers, Recipes operate unmetered; per-job metered views come
	// from ContainersFor / RecipesFor.
	Containers *container.Store
	Recipes    *recipe.Store
	SimIndex   *simindex.Index
	// Global is the (possibly sharded, possibly replicated) global
	// fingerprint index. With GlobalShards=GlobalReplicas=1 it is one
	// plain Index behind a pass-through view.
	Global *globalindex.Sharded
	// ReplGroups holds shard k's replica group when GlobalReplicas > 1
	// (nil otherwise): where replicas are killed and restarted.
	ReplGroups []*repl.Group
	// ReplDowntime accumulates the virtual failover cost charged by
	// every shard group (PhaseFailover).
	ReplDowntime *simclock.Account

	// EC is the erasure-coded redundancy tier (nil when ECDataShards is
	// 0): container payloads are striped across K+M backends, backend i
	// under oss.BackendPrefix(i) of the base store.
	EC *ec.Store

	// Files serialises per-file mutations across concurrent jobs
	// (backup/delete/compaction exclusive, restore shared).
	Files FileLocks
	// CLocks is the container reader/writer lock table: restores pin the
	// containers they read, physical rewrites take the write side.
	CLocks ContainerLocks

	// RestoreIO is the node-wide shared restore container cache
	// (singleflight fetches and one LRU list under a byte budget, across
	// jobs); nil when Config.SharedCacheBytes is negative. Container
	// mutations invalidate it via the store's OnInvalidate hook.
	RestoreIO *cache.Shared

	// maintEpoch counts committed maintenance mutations (rewrites, drops,
	// compactions, GC, reverse-dedup/scrub commits). Backups never bump
	// it. G-node's parallel passes scan and probe OUTSIDE maintMu at a
	// sampled epoch, then validate it under the lock: unchanged means no
	// maintenance invalidated the scan, so the pass commits; changed means
	// retry. See DESIGN.md §8.
	maintEpoch atomic.Uint64
}

// MaintEpoch samples the maintenance epoch (see the field comment).
func (r *Repo) MaintEpoch() uint64 { return r.maintEpoch.Load() }

// BumpMaintEpoch marks a committed maintenance mutation, invalidating any
// optimistic scan concurrently in flight.
func (r *Repo) BumpMaintEpoch() { r.maintEpoch.Add(1) }

// OpenRepo opens the storage layer on an OSS store, or initialises an empty
// one, first settling cfg's layout against the repository header (Config).
func OpenRepo(store oss.Store, cfg Config) (*Repo, error) {
	if err := openHeader(store, &cfg); err != nil {
		return nil, err
	}
	var tier *ec.Store
	containerOSS := store
	if cfg.ECDataShards > 0 {
		k, m := cfg.ECDataShards, cfg.ECParityShards
		set := oss.NewBackendSet(store, k+m, cfg.Costs)
		var err error
		if tier, err = ec.NewStore(set, k, m, cfg.Costs); err != nil {
			return nil, fmt.Errorf("core: open redundancy tier: %w", err)
		}
		containerOSS = ecRouter(tier, store)
	}
	cs, err := container.NewStore(containerOSS, cfg.ContainerCapacity)
	if err != nil {
		return nil, fmt.Errorf("core: open containers: %w", err)
	}
	cs.SplitWrites(int64(cfg.Costs.OSSRequestLatency.Seconds() * cfg.Costs.OSSWriteBandwidth))
	si, err := simindex.Open(store)
	if err != nil {
		return nil, fmt.Errorf("core: open similar file index: %w", err)
	}
	gi, groups, downtime, err := openGlobal(store, &cfg)
	if err != nil {
		return nil, fmt.Errorf("core: open global index: %w", err)
	}
	r := &Repo{
		Config:       cfg,
		Base:         store,
		EC:           tier,
		Containers:   cs,
		Recipes:      recipe.NewStore(store),
		SimIndex:     si,
		Global:       gi,
		ReplGroups:   groups,
		ReplDowntime: downtime,
	}
	if cfg.SharedCacheBytes >= 0 {
		r.RestoreIO = cache.NewShared(cfg.SharedCacheBytes)
		cs.OnInvalidate(r.RestoreIO.Invalidate)
	}
	return r, nil
}

// openGlobal builds the global index for the configured layout: one shard
// unreplicated lives at "gidx/", any other layout places shard k at
// "gidx/s<k>/" (replicas under "gidx/s<k>/n<i>/" with the log at
// "gidx/s<k>/log/").
func openGlobal(store oss.Store, cfg *Config) (*globalindex.Sharded, []*repl.Group, *simclock.Account, error) {
	shards := cfg.GlobalShards
	var (
		idxs     []*globalindex.Index
		groups   []*repl.Group
		downtime *simclock.Account
	)
	if cfg.GlobalReplicas > 1 {
		downtime = simclock.NewAccount()
	}
	for k := 0; k < shards; k++ {
		prefix := "gidx/"
		if shards > 1 || cfg.GlobalReplicas > 1 {
			prefix = fmt.Sprintf("gidx/s%d/", k)
		}
		var idx *globalindex.Index
		if cfg.GlobalReplicas > 1 {
			grp, err := repl.Open(store, repl.Options{
				Replicas: cfg.GlobalReplicas,
				Prefix:   prefix,
				KV:       cfg.GlobalKV,
				Downtime: downtime,
			})
			if err != nil {
				return nil, nil, nil, fmt.Errorf("shard %d: %w", k, err)
			}
			groups = append(groups, grp)
			idx = globalindex.OpenBackend(grp)
		} else {
			kv := cfg.GlobalKV
			kv.Prefix = prefix
			var err error
			if idx, err = globalindex.Open(store, globalindex.Options{KV: kv}); err != nil {
				return nil, nil, nil, fmt.Errorf("shard %d: %w", k, err)
			}
		}
		idxs = append(idxs, idx)
	}
	s, err := globalindex.NewSharded(idxs, cfg.MaintWorkers)
	return s, groups, downtime, err
}

// Metered returns an OSS view charging acct under the repo's cost model.
func (r *Repo) Metered(acct *simclock.Account) *oss.Metered {
	return oss.NewMetered(r.Base, r.Config.Costs, acct)
}

// ecRouter routes the container payloads, live and quarantined, through
// the redundancy tier and everything else — their metas included — to plain.
func ecRouter(tier *ec.Store, plain oss.Store) *ec.Router {
	return ec.NewRouter(tier, plain, ".data", container.Prefix, container.QuarantinePrefix)
}

// ContainersFor returns a container-store view charging acct. With the
// redundancy tier armed, payload I/O stripes through a per-account EC view
// (charging per-shard, per-backend costs) while metas, recipes and indexes
// keep using the plain metered store.
func (r *Repo) ContainersFor(acct *simclock.Account) *container.Store {
	if r.EC == nil {
		return r.Containers.View(r.Metered(acct))
	}
	return r.Containers.View(ecRouter(r.EC.WithAccount(acct), r.Metered(acct)))
}

// ECFor returns an EC-tier view charging acct (nil when the tier is off).
func (r *Repo) ECFor(acct *simclock.Account) *ec.Store {
	if r.EC == nil {
		return nil
	}
	return r.EC.WithAccount(acct)
}

// RecipesFor returns a recipe-store view charging acct.
func (r *Repo) RecipesFor(acct *simclock.Account) *recipe.Store {
	return recipe.NewStore(r.Metered(acct))
}

// Cutter constructs the configured chunker.
func (r *Repo) Cutter() chunker.Cutter {
	c, err := chunker.New(r.Config.ChunkAlgo, r.Config.ChunkParams)
	if err != nil {
		// Config was validated at OpenRepo; this cannot fail afterwards.
		panic(err)
	}
	return c
}

// FingerprintPerByte is the virtual CPU cost of fingerprinting one byte
// with the configured algorithm.
func (c *Config) FingerprintPerByte() float64 {
	if c.FingerprintAlg == fingerprint.SHA256 {
		return c.Costs.SHA256PerByte
	}
	return c.Costs.SHA1PerByte
}

// Fingerprint hashes a chunk with the configured algorithm, charging the
// fingerprinting CPU phase.
func (r *Repo) Fingerprint(acct *simclock.Account, data []byte) fingerprint.FP {
	if acct != nil {
		acct.ChargeCPUBytes(simclock.PhaseFingerprint, int64(len(data)), r.Config.FingerprintPerByte())
	}
	return fingerprint.Of(r.Config.FingerprintAlg, data)
}
