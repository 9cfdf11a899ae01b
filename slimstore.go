// Package slimstore is a cloud-based deduplication system for
// multi-version backups, reproducing Zhang et al., "SLIMSTORE: A
// Cloud-based Deduplication System for Multi-version Backups" (ICDE 2021).
//
// The system separates storage from computation: all durable state —
// chunk containers, file recipes, the similar-file index, and the global
// fingerprint index — lives on an object store (OSS), while stateless
// L-nodes serve fast online deduplication and restore, and a G-node
// performs offline space optimisation (exact reverse deduplication,
// sparse-container compaction, and version collection).
//
// Quick start:
//
//	sys, _ := slimstore.OpenMemory(slimstore.DefaultConfig())
//	stats, _ := sys.Backup("db/users.tbl", data)
//	sys.Optimize(stats)                    // offline G-node pass
//	var buf bytes.Buffer
//	sys.Restore("db/users.tbl", stats.Version, &buf)
package slimstore

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/gnode"
	"slimstore/internal/jobs"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
)

// Re-exported configuration and result types. These aliases are the
// public names of the engine's types; external importers use them without
// touching internal packages.
type (
	// Config holds every tunable of the system; see DefaultConfig.
	Config = core.Config
	// BackupStats reports one backup job.
	BackupStats = lnode.BackupStats
	// RestoreStats reports one restore job.
	RestoreStats = lnode.RestoreStats
	// ReverseDedupStats reports an offline exact-deduplication pass.
	ReverseDedupStats = gnode.ReverseDedupStats
	// SCCStats reports a sparse-container compaction pass.
	SCCStats = gnode.SCCStats
	// GCStats reports a version deletion.
	GCStats = gnode.GCStats
	// AuditStats reports a full mark-and-sweep audit.
	AuditStats = gnode.AuditStats
	// ScrubStats reports an integrity scrub/repair pass.
	ScrubStats = gnode.ScrubStats
	// ObjectStore is the storage-layer abstraction (see OpenStore).
	ObjectStore = oss.Store
	// Engine is the concurrent multi-job scheduler (see System.NewEngine).
	Engine = jobs.Engine
	// EngineOptions tune an Engine (L-node count, queue depth).
	EngineOptions = jobs.Options
	// Job is one unit of engine work.
	Job = jobs.Job
	// JobResult is one completed engine job.
	JobResult = jobs.Result
	// JobKind selects what a Job does.
	JobKind = jobs.Kind
)

// Engine job kinds.
const (
	JobBackup   = jobs.Backup
	JobRestore  = jobs.Restore
	JobVerify   = jobs.Verify
	JobDelete   = jobs.Delete
	JobOptimize = jobs.Optimize
	JobScrub    = jobs.Scrub
	JobSweep    = jobs.Sweep
)

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// System is an opened SLIMSTORE deployment: a storage layer, one stateless
// L-node and one G-node. All methods are safe for concurrent use.
// Synchronous calls (Backup, Restore, Optimize, Scrub, …) run on the
// caller's goroutine; the batch calls (BackupAll, BackupSnapshot,
// RestoreSnapshot) and anything meant to run in the background go through
// a jobs.Engine (NewEngine) — the computing layer's one scheduler.
type System struct {
	repo *core.Repo
	g    *gnode.GNode
	l    *lnode.LNode
}

// Open assembles a System over any ObjectStore. Leave cfg's layout fields
// zero to take an existing repository's; set, they must equal its header's.
func Open(store ObjectStore, cfg Config) (*System, error) {
	repo, err := core.OpenRepo(store, cfg)
	if err != nil {
		return nil, err
	}
	return &System{repo: repo, g: gnode.New(repo), l: lnode.New(repo, "L0")}, nil
}

// Close closes the L-node and the global index, whose shards flush what
// their logs hold, so the next Open replays nothing; it returns the first
// error. The System must not be used after.
func (s *System) Close() error {
	s.l.Close()
	return s.repo.Global.Close()
}

// OpenMemory opens a System over an in-memory object store (tests,
// experiments).
func OpenMemory(cfg Config) (*System, error) {
	return Open(oss.NewMem(), cfg)
}

// OpenDirectory opens a System persisting to a local directory.
func OpenDirectory(dir string, cfg Config) (*System, error) {
	st, err := oss.NewDisk(dir)
	if err != nil {
		return nil, err
	}
	return Open(st, cfg)
}

// OpenHTTP opens a System backed by a remote object-store server (see
// cmd/ossserver). hc may be nil for http.DefaultClient. Requests that fail
// transiently (5xx, 429, network errors) get up to four attempts with
// jittered exponential backoff; not-found and other 4xx fail at once.
func OpenHTTP(baseURL string, hc *http.Client, cfg Config) (*System, error) {
	return Open(oss.NewRetry(oss.NewClient(baseURL, hc), 4, 0, nil), cfg)
}

// NewMemoryStore returns a fresh in-memory ObjectStore, for callers that
// want to share one store across Systems.
func NewMemoryStore() ObjectStore { return oss.NewMem() }

// NamespacedStore returns a view of store isolated under prefix — one
// tenant per namespace on a shared physical store (the paper's per-user
// global index deployed as per-user buckets).
func NamespacedStore(store ObjectStore, prefix string) ObjectStore {
	return oss.NewPrefixed(store, prefix)
}

// NewEngine starts a job engine over this deployment: opts.LNodes worker
// goroutines, each hosting one L-node, pulling from a bounded queue and
// sharing the repository (and its lock protocol) and the G-node with the
// System. Submit returns a Ticket to wait on, so background G-node work is
// Submit(Job{Kind: JobOptimize|JobScrub|JobSweep}); a full queue blocks
// Submit (backpressure). Close the engine when done — it runs every queued
// job first; the System remains usable.
func (s *System) NewEngine(opts EngineOptions) *Engine {
	return jobs.New(s.repo, s.g, opts)
}

// runJobs runs js to completion on a private engine `workers` wide
// (workers <= 0 = the engine's default) and returns the results in order.
func (s *System) runJobs(js []Job, workers int) []JobResult {
	eng := s.NewEngine(EngineOptions{LNodes: workers})
	defer eng.Close()
	// nil is Submit's documented uncancellable context: the batch calls
	// have no context to forward and run to completion.
	return eng.Run(nil, js)
}

// RestoreRange streams bytes [off, off+length) of a stored version to w
// (length < 0 means to the end) — partial recovery without a full restore.
func (s *System) RestoreRange(fileID string, version int, off, length int64, w io.Writer) (*RestoreStats, error) {
	return s.l.RestoreRange(fileID, version, off, length, w)
}

// Backup deduplicates and stores one version of a file. The returned stats
// carry the new version number and the inputs for Optimize.
func (s *System) Backup(fileID string, data []byte) (*BackupStats, error) {
	return s.l.Backup(fileID, data)
}

// BackupStream deduplicates and stores one version of a file read from
// rd. A version without a base (a first version, a similarity miss)
// streams at O(window) memory under every configuration; one with a base
// streams too unless skip chunking or chunk merging is on (the default),
// which need the whole version in memory and buffer the reader
// (DESIGN §13).
func (s *System) BackupStream(fileID string, rd io.Reader) (*BackupStats, error) {
	return s.l.BackupStream(fileID, rd)
}

// Restore streams a stored version to w.
func (s *System) Restore(fileID string, version int, w io.Writer) (*RestoreStats, error) {
	return s.l.Restore(fileID, version, w)
}

// Verify reads a stored version end to end, re-fingerprinting every chunk,
// without materialising the data. It returns an error on any corruption.
func (s *System) Verify(fileID string, version int) (*RestoreStats, error) {
	return s.l.Verify(fileID, version)
}

// sortedKeys returns m's file IDs in the order every batch call dispatches.
func sortedKeys[V any](m map[string]V) []string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// BackupAll runs one backup job per entry through an engine, up to
// `workers` at a time (workers <= 0 uses the engine's default width). Jobs
// are submitted in sorted file-ID order — container IDs come from one
// shared counter, so with one worker the container layout is reproducible.
// It returns per-file stats; on failures it completes the remaining jobs
// and returns the first error.
func (s *System) BackupAll(files map[string][]byte, workers int) (map[string]*BackupStats, error) {
	ids := sortedKeys(files)
	js := make([]Job, len(ids))
	for i, id := range ids {
		js[i] = Job{Kind: JobBackup, FileID: id, Data: files[id]}
	}
	out := make(map[string]*BackupStats, len(files))
	var firstErr error
	for _, r := range s.runJobs(js, workers) {
		if r.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("backup %s: %w", r.Job.FileID, r.Err)
			}
			continue
		}
		out[r.Job.FileID] = r.Backup
	}
	return out, firstErr
}

// OptimizeAll runs the G-node pass for every result of a BackupAll.
// G-node work is serialised (it is one offline node in the paper).
func (s *System) OptimizeAll(stats map[string]*BackupStats) error {
	// Deterministic order for reproducible container layouts.
	for _, id := range sortedKeys(stats) {
		if _, _, err := s.Optimize(stats[id]); err != nil {
			return fmt.Errorf("optimize %s: %w", id, err)
		}
	}
	return nil
}

// Optimize runs the G-node's offline pass for a finished backup: global
// reverse deduplication over the backup's new containers, then sparse
// container compaction for the containers the backup flagged. To run it in
// the background, submit a JobOptimize to an Engine instead.
func (s *System) Optimize(st *BackupStats) (*ReverseDedupStats, *SCCStats, error) {
	return s.g.Optimize(st.FileID, st.Version, st.NewContainers, st.SparseContainers)
}

// DeleteVersion removes a version and sweeps its garbage containers
// (version collection). Delete oldest versions first for maximal
// reclamation.
func (s *System) DeleteVersion(fileID string, version int) (*GCStats, error) {
	return s.g.DeleteVersion(fileID, version)
}

// Audit runs a full mark-and-sweep pass, reclaiming any container not
// reachable from a live recipe.
func (s *System) Audit() (*AuditStats, error) { return s.g.FullSweep() }

// Scrub verifies every container against its checksums, repairs corrupt
// chunks that have an intact copy elsewhere, salvages what it can from
// damaged containers, and quarantines the rest. See gnode.ScrubStats for
// what it reports.
func (s *System) Scrub() (*ScrubStats, error) { return s.g.Scrub() }

// Snapshot groups the file versions captured by one backup session.
type Snapshot = recipe.Snapshot

// SnapshotMember is one file version inside a snapshot.
type SnapshotMember = recipe.SnapshotMember

// BackupSnapshot backs up a set of files through an engine (see BackupAll)
// and records them as one named snapshot — the paper's periodic
// full-volume backup session. The G-node pass runs synchronously before
// the manifest is written.
func (s *System) BackupSnapshot(id string, files map[string][]byte, workers int) (*Snapshot, error) {
	stats, err := s.BackupAll(files, workers)
	if err != nil {
		return nil, err
	}
	if err := s.OptimizeAll(stats); err != nil {
		return nil, err
	}
	snap := &Snapshot{ID: id}
	for fid, st := range stats {
		snap.Members = append(snap.Members, SnapshotMember{
			FileID: fid, Version: st.Version, Bytes: st.LogicalBytes,
		})
	}
	if err := s.repo.Recipes.PutSnapshot(snap); err != nil {
		return nil, err
	}
	return s.repo.Recipes.GetSnapshot(id)
}

// RestoreSnapshot restores every member of a snapshot through an engine, up
// to `workers` at a time (workers <= 0 uses the engine's default width).
// Each member's writer comes from open (which may create files, buffers,
// …), called on the caller's goroutine in file-ID order before any restore
// starts; the writers are written to concurrently, one job each.
func (s *System) RestoreSnapshot(id string, open func(fileID string) (io.Writer, error), workers int) error {
	snap, err := s.repo.Recipes.GetSnapshot(id)
	if err != nil {
		return err
	}
	// A stored manifest's members are already in file-ID order.
	js := make([]Job, len(snap.Members))
	for i, m := range snap.Members {
		w, err := open(m.FileID)
		if err != nil {
			return fmt.Errorf("restore snapshot %s: open %s: %w", id, m.FileID, err)
		}
		js[i] = Job{Kind: JobRestore, FileID: m.FileID, Version: m.Version, Out: w}
	}
	for _, r := range s.runJobs(js, workers) {
		if r.Err != nil {
			return fmt.Errorf("restore snapshot %s: %s v%d: %w", id, r.Job.FileID, r.Job.Version, r.Err)
		}
	}
	return nil
}

// DeleteSnapshot deletes a snapshot's manifest and its member versions
// (version collection sweeps their garbage containers).
func (s *System) DeleteSnapshot(id string) error {
	snap, err := s.repo.Recipes.GetSnapshot(id)
	if err != nil {
		return err
	}
	for _, m := range snap.Members {
		if _, err := s.DeleteVersion(m.FileID, m.Version); err != nil {
			return fmt.Errorf("delete snapshot %s: %s v%d: %w", id, m.FileID, m.Version, err)
		}
	}
	return s.repo.Recipes.DeleteSnapshot(id)
}

// Snapshots lists stored snapshot IDs.
func (s *System) Snapshots() ([]string, error) { return s.repo.Recipes.Snapshots() }

// SnapshotInfo loads one snapshot's manifest.
func (s *System) SnapshotInfo(id string) (*Snapshot, error) {
	return s.repo.Recipes.GetSnapshot(id)
}

// Files lists every backed-up file.
func (s *System) Files() ([]string, error) { return s.repo.Recipes.Files() }

// Versions lists a file's stored versions in ascending order.
func (s *System) Versions(fileID string) ([]int, error) {
	return s.repo.Recipes.Versions(fileID)
}

// SpaceUsage summarises the storage layer.
type SpaceUsage struct {
	ContainerBytes int64 // chunk payloads + container metadata, incl. quarantined and erasure-coded shards
	RecipeBytes    int64 // recipes, recipe indexes, catalog, snapshot manifests
	IndexBytes     int64 // similar-file index + global index (Rocks-OSS)
	TotalBytes     int64 // every object in the repository, incl. namespaces not itemised above (the header)
}

// SpaceUsage measures occupied space by OSS namespace (Fig 9 / Fig 10c).
func (s *System) SpaceUsage() (SpaceUsage, error) {
	var u SpaceUsage
	keys, err := s.repo.Base.List("")
	if err != nil {
		return u, err
	}
	for _, k := range keys {
		n, err := s.repo.Base.Head(k)
		if err != nil {
			return u, err
		}
		u.TotalBytes += n
		ns, _, _ := strings.Cut(k, "/")
		switch ns {
		case "containers", "quarantine", "ec":
			u.ContainerBytes += n
		case "recipes", "catalog", "snapshots":
			u.RecipeBytes += n
		case "simindex", "gidx":
			u.IndexBytes += n
		}
	}
	return u, nil
}

// SHA1Kernel names the SHA-1 implementation chunk fingerprinting runs on in
// this process: "sha-ni" (the CPU's SHA extensions) or "crypto/sha1".
func SHA1Kernel() string { return fingerprint.Kernel() }

// Config returns the system's effective configuration.
func (s *System) Config() Config { return s.repo.Config }

// Metrics is an aggregate operational snapshot of the deployment.
type Metrics struct {
	Files       int
	Versions    int
	Containers  int
	Snapshots   int
	GlobalIndex globalindex.Stats
	Space       SpaceUsage
}

// Metrics gathers an operational snapshot (files, versions, containers,
// index counters, space by namespace).
func (s *System) Metrics() (Metrics, error) {
	var m Metrics
	files, err := s.Files()
	if err != nil {
		return m, err
	}
	m.Files = len(files)
	for _, f := range files {
		vs, err := s.Versions(f)
		if err != nil {
			return m, err
		}
		m.Versions += len(vs)
	}
	ids, err := s.repo.Containers.List()
	if err != nil {
		return m, err
	}
	m.Containers = len(ids)
	snaps, err := s.Snapshots()
	if err != nil {
		return m, err
	}
	m.Snapshots = len(snaps)
	m.GlobalIndex = s.repo.Global.Stats()
	m.Space, err = s.SpaceUsage()
	return m, err
}
