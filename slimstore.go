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
	"sync"
	"sync/atomic"

	"slimstore/internal/core"
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

// System is an opened SLIMSTORE deployment: a storage layer plus a pool
// of L-nodes and one G-node. All methods are safe for concurrent use;
// concurrent Backup/Restore calls are distributed over the L-node pool.
type System struct {
	repo  *core.Repo
	g     *gnode.GNode
	maint *gnode.Maintainer
	mu    sync.Mutex
	ls    []*lnode.LNode
	next  atomic.Uint64
}

// Open assembles a System over any ObjectStore.
func Open(store ObjectStore, cfg Config) (*System, error) {
	repo, err := core.OpenRepo(store, cfg)
	if err != nil {
		return nil, err
	}
	s := &System{repo: repo, g: gnode.New(repo)}
	s.maint = gnode.NewMaintainer(s.g)
	s.ls = []*lnode.LNode{lnode.New(repo, "L0")}
	return s, nil
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
// cmd/ossserver). hc may be nil for http.DefaultClient.
func OpenHTTP(baseURL string, hc *http.Client, cfg Config) (*System, error) {
	return Open(oss.NewClient(baseURL, hc), cfg)
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

// NewEngine starts a concurrent job engine over this deployment: a pool
// of goroutine-hosted L-nodes pulling from a bounded queue, sharing the
// repository (and its lock protocol) with the System's own L-nodes and
// G-node. Close the engine when done; the System remains usable.
func (s *System) NewEngine(opts EngineOptions) *Engine {
	return jobs.New(s.repo, s.g, opts)
}

// RestoreRange streams bytes [off, off+length) of a stored version to w
// (length < 0 means to the end) — partial recovery without a full restore.
func (s *System) RestoreRange(fileID string, version int, off, length int64, w io.Writer) (*RestoreStats, error) {
	return s.pick().RestoreRange(fileID, version, off, length, w)
}

// ScaleLNodes sets the L-node pool size (elastic computing layer). Jobs
// already running are unaffected.
func (s *System) ScaleLNodes(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ls) < n {
		s.ls = append(s.ls, lnode.New(s.repo, fmt.Sprintf("L%d", len(s.ls))))
	}
	if len(s.ls) > n {
		s.ls = s.ls[:n]
	}
}

// LNodes returns the current pool size.
func (s *System) LNodes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ls)
}

func (s *System) pick() *lnode.LNode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ls[int(s.next.Add(1))%len(s.ls)]
}

// Backup deduplicates and stores one version of a file, assigning the job
// to an L-node round-robin. The returned stats carry the new version
// number and the inputs for Optimize.
func (s *System) Backup(fileID string, data []byte) (*BackupStats, error) {
	return s.pick().Backup(fileID, data)
}

// BackupStream deduplicates and stores one version of a file read from
// rd, holding O(window) memory instead of the whole file (DESIGN §13).
// Configurations the streaming cutter cannot serve (skip chunking,
// chunk merging, inline hashing) buffer the reader and fall back to
// Backup.
func (s *System) BackupStream(fileID string, rd io.Reader) (*BackupStats, error) {
	return s.pick().BackupStream(fileID, rd)
}

// Restore streams a stored version to w.
func (s *System) Restore(fileID string, version int, w io.Writer) (*RestoreStats, error) {
	return s.pick().Restore(fileID, version, w)
}

// Verify reads a stored version end to end, re-fingerprinting every chunk,
// without materialising the data. It returns an error on any corruption.
func (s *System) Verify(fileID string, version int) (*RestoreStats, error) {
	return s.pick().Verify(fileID, version)
}

// BackupAll runs one backup job per entry concurrently across the L-node
// pool, up to `workers` at a time (workers <= 0 uses the pool size). Jobs
// are dispatched in sorted file-ID order — container IDs come from one
// shared counter, so with one worker the container layout is reproducible.
// It returns per-file stats; on failures it completes the remaining jobs
// and returns the first error.
func (s *System) BackupAll(files map[string][]byte, workers int) (map[string]*BackupStats, error) {
	if workers <= 0 {
		workers = s.LNodes()
	}
	ids := make([]string, 0, len(files))
	for id := range files {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	jobs := make(chan string)
	var wg sync.WaitGroup
	var mu sync.Mutex
	out := make(map[string]*BackupStats, len(files))
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range jobs {
				st, err := s.Backup(id, files[id])
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("backup %s: %w", id, err)
					}
				} else {
					out[id] = st
				}
				mu.Unlock()
			}
		}()
	}
	for _, id := range ids {
		jobs <- id
	}
	close(jobs)
	wg.Wait()
	return out, firstErr
}

// OptimizeAll runs the G-node pass for every result of a BackupAll.
// G-node work is serialised (it is one offline node in the paper).
func (s *System) OptimizeAll(stats map[string]*BackupStats) error {
	// Deterministic order for reproducible container layouts.
	ids := make([]string, 0, len(stats))
	for id := range stats {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, _, err := s.Optimize(stats[id]); err != nil {
			return fmt.Errorf("optimize %s: %w", id, err)
		}
	}
	return nil
}

// Optimize runs the G-node's offline pass for a finished backup: global
// reverse deduplication over the backup's new containers, then sparse
// container compaction for the containers the backup flagged.
func (s *System) Optimize(st *BackupStats) (*ReverseDedupStats, *SCCStats, error) {
	rd, err := s.g.ReverseDedup(st.NewContainers)
	if err != nil {
		return nil, nil, err
	}
	scc, err := s.g.CompactSparse(st.FileID, st.Version, st.SparseContainers)
	if err != nil {
		return rd, nil, err
	}
	return rd, scc, nil
}

// QueueOptimize hands a finished backup to the background G-node worker
// and returns immediately — the paper's offline deployment. Call
// DrainOptimize to wait for the queue, or Optimize for the synchronous
// path. The worker starts on first use.
func (s *System) QueueOptimize(st *BackupStats) error {
	s.maint.Start()
	return s.maint.Enqueue(st.FileID, st.Version, st.NewContainers, st.SparseContainers)
}

// DrainOptimize blocks until every queued optimisation completed.
func (s *System) DrainOptimize() { s.maint.Drain() }

// MaintenanceStats reports the background G-node's accumulated work.
func (s *System) MaintenanceStats() gnode.MaintStats { return s.maint.Stats() }

// Close drains and stops the background G-node worker. The System remains
// usable for synchronous operations afterwards.
func (s *System) Close() { s.maint.Stop() }

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

// QueueScrub hands a scrub to the background G-node worker, behind any
// pending optimisation jobs. DrainOptimize waits for it.
func (s *System) QueueScrub() error {
	s.maint.Start()
	return s.maint.EnqueueScrub()
}

// Snapshot groups the file versions captured by one backup session.
type Snapshot = recipe.Snapshot

// SnapshotMember is one file version inside a snapshot.
type SnapshotMember = recipe.SnapshotMember

// BackupSnapshot backs up a set of files concurrently (see BackupAll) and
// records them as one named snapshot — the paper's periodic full-volume
// backup session. The G-node pass runs synchronously before the manifest
// is written.
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

// RestoreSnapshot restores every member of a snapshot, obtaining each
// file's writer from open (which may create files, buffers, …).
func (s *System) RestoreSnapshot(id string, open func(fileID string) (io.Writer, error)) error {
	snap, err := s.repo.Recipes.GetSnapshot(id)
	if err != nil {
		return err
	}
	for _, m := range snap.Members {
		w, err := open(m.FileID)
		if err != nil {
			return fmt.Errorf("restore snapshot %s: open %s: %w", id, m.FileID, err)
		}
		if _, err := s.Restore(m.FileID, m.Version, w); err != nil {
			return fmt.Errorf("restore snapshot %s: %s v%d: %w", id, m.FileID, m.Version, err)
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
	ContainerBytes int64 // chunk payloads + container metadata
	RecipeBytes    int64 // recipes, recipe indexes, catalog
	IndexBytes     int64 // similar-file index + global index (Rocks-OSS)
	TotalBytes     int64
}

// SpaceUsage measures occupied space by OSS namespace (Fig 9 / Fig 10c).
func (s *System) SpaceUsage() (SpaceUsage, error) {
	var u SpaceUsage
	sum := func(prefix string) (int64, error) {
		keys, err := s.repo.Base.List(prefix)
		if err != nil {
			return 0, err
		}
		var t int64
		for _, k := range keys {
			n, err := s.repo.Base.Head(k)
			if err != nil {
				return 0, err
			}
			t += n
		}
		return t, nil
	}
	var err error
	if u.ContainerBytes, err = sum("containers/"); err != nil {
		return u, err
	}
	var rb, cb int64
	if rb, err = sum("recipes/"); err != nil {
		return u, err
	}
	if cb, err = sum("catalog/"); err != nil {
		return u, err
	}
	u.RecipeBytes = rb + cb
	var si, gi int64
	if si, err = sum("simindex/"); err != nil {
		return u, err
	}
	if gi, err = sum("gidx/"); err != nil {
		return u, err
	}
	u.IndexBytes = si + gi
	u.TotalBytes = u.ContainerBytes + u.RecipeBytes + u.IndexBytes
	return u, nil
}

// Config returns the system's effective configuration.
func (s *System) Config() Config { return s.repo.Config }

// Metrics is an aggregate operational snapshot of the deployment.
type Metrics struct {
	LNodes      int
	Files       int
	Versions    int
	Containers  int
	Snapshots   int
	GlobalIndex globalindex.Stats
	Maintenance gnode.MaintStats
	Space       SpaceUsage
}

// Metrics gathers an operational snapshot (files, versions, containers,
// index and maintenance counters, space by namespace).
func (s *System) Metrics() (Metrics, error) {
	var m Metrics
	m.LNodes = s.LNodes()
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
	m.Maintenance = s.maint.Stats()
	m.Space, err = s.SpaceUsage()
	return m, err
}
