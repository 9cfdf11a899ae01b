package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/repl"
)

// ReplOptions configures a replication chaos run: a fault repo whose
// G-shard replica groups get their leaders killed mid-sweep, compared
// against a fault-free twin with the identical layout and workload.
type ReplOptions struct {
	Seed     int64
	Shards   int // G-shards (default 4)
	Replicas int // kvstores per shard group (default 3)
	Log      func(format string, args ...any)
}

// ReplResult counts what the replication schedule did and observed.
type ReplResult struct {
	LeaderKills     int           // leaders crashed mid-sweep (one per shard group)
	Failovers       int64         // elections the groups ran to route around them
	NodeFailures    int64         // replica crashes the groups detected
	Restarts        int           // replicas rebooted and caught up from the log
	NoQuorumErrors  int           // loud ErrNoQuorum failures (expected, then recovered)
	DowntimeVirtual time.Duration // virtual failover cost charged to the sim clock
	SweepOps        int64         // index operations the twin's sweep issued
	LiveVersions    int           // versions verified byte-identical at the end
}

// replConfig is the shared layout of both repos in a replication run.
func replConfig(shards, replicas int) core.Config {
	cfg := core.DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 128 << 10
	cfg.SegmentChunks = 64
	cfg.SampleRatio = 8
	cfg.ChunkMerging = false
	cfg.CacheMemBytes = 16 << 20
	cfg.CacheDiskBytes = 64 << 20
	cfg.LAWChunks = 256
	cfg.PrefetchThreads = 0
	cfg.SimilarityMinScore = 1.1 // force missed cross-file dups: real sweep work
	cfg.MaintWorkers = 4
	cfg.GlobalShards = shards
	cfg.GlobalReplicas = replicas
	return cfg
}

// replRepo is one side of the twin pair.
type replRepo struct {
	mem  *oss.Frozen
	repo *core.Repo
	ln   *lnode.LNode
	gn   *gnode.GNode
	new  []container.ID
	live []fileVersion // versions that must survive the whole schedule
}

type fileVersion struct {
	name string
	ver  int
}

func openReplRepo(cfg core.Config) (*replRepo, error) {
	mem := oss.NewFrozen(oss.NewMem())
	repo, err := core.OpenRepo(mem, cfg)
	if err != nil {
		return nil, err
	}
	return &replRepo{mem: mem, repo: repo, ln: lnode.New(repo, "repl-l0"), gn: gnode.New(repo)}, nil
}

// seedWorkload drives byte-identical backups into a repo. Every file
// shares a common block (the L-node is configured to miss these
// cross-file duplicates, giving reverse dedup real repoints) and file
// "del" gets a second version so deleting v0 leaves the sweep real
// reclamation. Many files means many recipes — the sweep's mark phase
// probes the index once per recipe, giving the kill schedule a wide op
// span to land in.
func (r *replRepo) seedWorkload(files []seedFile) error {
	for _, f := range files {
		st, err := r.ln.Backup(f.name, f.data)
		if err != nil {
			return fmt.Errorf("backup %s: %w", f.name, err)
		}
		r.new = append(r.new, st.NewContainers...)
		if f.live {
			r.live = append(r.live, fileVersion{f.name, st.Version})
		}
	}
	return nil
}

type seedFile struct {
	name string
	data []byte
	live bool // must survive the schedule (not deleted)
}

// seedFiles builds the deterministic backup set both twins receive.
func seedFiles(seed int64) []seedFile {
	shared := genSeeded(seed+1, 384<<10)
	var files []seedFile
	for i := 0; i < 8; i++ {
		unique := genSeeded(seed+10+int64(i), 128<<10+int(seed%7)<<10)
		data := append(append([]byte(nil), shared...), unique...)
		files = append(files, seedFile{name: fmt.Sprintf("f%d", i), data: data, live: true})
	}
	// Two versions of "del": v0 is deleted before the sweep.
	files = append(files,
		seedFile{name: "del", data: genSeeded(seed+2, 256<<10), live: false},
		seedFile{name: "del", data: append(append([]byte(nil), shared[:128<<10]...), genSeeded(seed+3, 128<<10)...), live: true},
	)
	return files
}

// indexSnapshot dumps the global index in fingerprint order.
func (r *replRepo) indexSnapshot() (map[fingerprint.FP]container.ID, error) {
	m := map[fingerprint.FP]container.ID{}
	err := r.repo.Global.Scan(func(fp fingerprint.FP, id container.ID) bool {
		m[fp] = id
		return true
	})
	return m, err
}

// metaSnapshot serialises every container's metadata in ID order.
func (r *replRepo) metaSnapshot() (string, error) {
	ids, err := r.repo.Containers.List()
	if err != nil {
		return "", err
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	var buf bytes.Buffer
	for _, id := range ids {
		m, err := r.repo.Containers.ReadMeta(id)
		if err != nil {
			return "", fmt.Errorf("meta %s: %w", id, err)
		}
		fmt.Fprintf(&buf, "%s size=%d\n", id, m.DataSize)
		for i := range m.Chunks {
			cm := &m.Chunks[i]
			fmt.Fprintf(&buf, "  %s off=%d size=%d deleted=%v\n", cm.FP.Short(), cm.Offset, cm.Size, cm.Deleted)
		}
	}
	return buf.String(), nil
}

func (r *replRepo) restore(name string, ver int) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := r.ln.Restore(name, ver, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// assertTwinEqual demands the fault repo converged to exactly the
// fault-free twin's state: index dump, container metadata, and restored
// bytes of every surviving version.
func assertTwinEqual(fault, twin *replRepo, res *ReplResult) error {
	fi, err := fault.indexSnapshot()
	if err != nil {
		return fmt.Errorf("fault index: %w", err)
	}
	ti, err := twin.indexSnapshot()
	if err != nil {
		return fmt.Errorf("twin index: %w", err)
	}
	if !reflect.DeepEqual(fi, ti) {
		return fmt.Errorf("index diverges: fault %d entries, twin %d", len(fi), len(ti))
	}
	fm, err := fault.metaSnapshot()
	if err != nil {
		return err
	}
	tm, err := twin.metaSnapshot()
	if err != nil {
		return err
	}
	if fm != tm {
		return fmt.Errorf("container metadata diverges:\n--- fault ---\n%s--- twin ---\n%s", fm, tm)
	}
	for _, v := range twin.live {
		fb, err := fault.restore(v.name, v.ver)
		if err != nil {
			return fmt.Errorf("fault restore %s v%d: %w", v.name, v.ver, err)
		}
		tb, err := twin.restore(v.name, v.ver)
		if err != nil {
			return fmt.Errorf("twin restore %s v%d: %w", v.name, v.ver, err)
		}
		if !bytes.Equal(fb, tb) {
			return fmt.Errorf("restore %s v%d diverges between fault repo and twin", v.name, v.ver)
		}
		res.LiveVersions++
	}
	return nil
}

// restartAll reboots every dead replica of every shard group.
func restartAll(repo *core.Repo, res *ReplResult) error {
	for k, g := range repo.ReplGroups {
		st := g.ReplStats()
		for id := 0; id < st.Replicas; id++ {
			if err := g.Restart(id); err != nil {
				return fmt.Errorf("restart shard %d replica %d: %w", k, id, err)
			}
		}
	}
	res.Restarts++
	return nil
}

// RunRepl executes the replication chaos schedule: identical workloads on
// a fault repo and a fault-free twin, then a FullSweep on the fault repo
// during which the leader of EVERY shard group is crashed at a
// deterministic index-operation threshold. The groups must fail over
// transparently and the sweep must converge to the twin's exact state.
// A second scenario kills a whole quorum of one shard, demands a loud
// ErrNoQuorum failure, restarts the replicas, and re-runs the sweep to
// the same converged state — maintenance is idempotent across failover.
func RunRepl(opts ReplOptions) (*ReplResult, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	res := &ReplResult{}
	cfg := replConfig(opts.Shards, opts.Replicas)

	twin, err := openReplRepo(cfg)
	if err != nil {
		return res, fmt.Errorf("chaos repl: open twin: %w", err)
	}
	fault, err := openReplRepo(cfg)
	if err != nil {
		return res, fmt.Errorf("chaos repl: open fault repo: %w", err)
	}
	if len(fault.repo.ReplGroups) != opts.Shards {
		return res, fmt.Errorf("chaos repl: %d replica groups, want %d", len(fault.repo.ReplGroups), opts.Shards)
	}

	// Identical content on both sides, derived from the seed.
	files := seedFiles(opts.Seed)
	for _, r := range []*replRepo{twin, fault} {
		if err := r.seedWorkload(files); err != nil {
			return res, fmt.Errorf("chaos repl: seed: %w", err)
		}
		if _, err := r.gn.ReverseDedup(r.new); err != nil {
			return res, fmt.Errorf("chaos repl: reverse dedup: %w", err)
		}
		if _, err := r.gn.DeleteVersion("del", 0); err != nil {
			return res, fmt.Errorf("chaos repl: delete: %w", err)
		}
	}

	// Fault-free sweep on the twin, measuring the index-operation span of
	// a sweep so the kill thresholds land strictly inside the fault
	// repo's identical sweep.
	before := twin.repo.Global.Ops()
	twinSweep, err := twin.gn.FullSweep()
	if err != nil {
		return res, fmt.Errorf("chaos repl: twin sweep: %w", err)
	}
	res.SweepOps = twin.repo.Global.Ops() - before
	if res.SweepOps < 2*int64(opts.Shards) {
		return res, fmt.Errorf("chaos repl: sweep issued only %d index ops — too few to place %d distinct kills", res.SweepOps, opts.Shards)
	}
	if twinSweep.ContainersSwept == 0 {
		return res, fmt.Errorf("chaos repl: degenerate schedule, twin sweep reclaimed nothing: %+v", twinSweep)
	}

	// Scenario 1: kill the leader of every shard group mid-sweep, spread
	// across the sweep's op span. Quorum survives each kill, so the sweep
	// must complete and converge.
	base := fault.repo.Global.Ops()
	thresholds := make(map[int64]int, opts.Shards)
	for k := 0; k < opts.Shards; k++ {
		thresholds[base+1+res.SweepOps*int64(k)/int64(opts.Shards)] = k
	}
	var mu sync.Mutex
	fault.repo.Global.OnOp(func(n int64) {
		mu.Lock()
		k, ok := thresholds[n]
		if ok {
			delete(thresholds, n)
		}
		mu.Unlock()
		if !ok {
			return
		}
		id := fault.repo.ReplGroups[k].KillLeader()
		mu.Lock()
		res.LeaderKills++
		mu.Unlock()
		opts.Log("op %d: killed shard %d leader (replica %d)", n, k, id)
	})
	faultSweep, err := fault.gn.FullSweep()
	fault.repo.Global.OnOp(nil)
	if err != nil {
		return res, fmt.Errorf("chaos repl: sweep under leader kills: %w", err)
	}
	if res.LeaderKills != opts.Shards {
		return res, fmt.Errorf("chaos repl: only %d of %d leader kills fired", res.LeaderKills, opts.Shards)
	}
	if !reflect.DeepEqual(faultSweep, twinSweep) {
		return res, fmt.Errorf("chaos repl: sweep stats diverge:\nfault: %+v\ntwin:  %+v", faultSweep, twinSweep)
	}
	if err := restartAll(fault.repo, res); err != nil {
		return res, fmt.Errorf("chaos repl: %w", err)
	}
	if err := assertTwinEqual(fault, twin, res); err != nil {
		return res, fmt.Errorf("chaos repl: after leader kills: %w", err)
	}

	// Scenario 2: crash a whole quorum of shard 0 on the first index op
	// of the next sweep. The sweep must fail LOUDLY with ErrNoQuorum —
	// never silently skip the dead shard — and after restarting the
	// replicas, re-running the sweep is idempotent.
	res.LiveVersions = 0 // recounted by the final assert
	killAt := fault.repo.Global.Ops() + 1
	var killOnce sync.Once
	fault.repo.Global.OnOp(func(n int64) {
		if n < killAt {
			return
		}
		killOnce.Do(func() {
			g := fault.repo.ReplGroups[0]
			st := g.ReplStats()
			for i := 0; i < st.Quorum; i++ {
				g.Kill(i)
			}
			opts.Log("op %d: killed a full quorum (%d replicas) of shard 0", n, st.Quorum)
		})
	})
	_, err = fault.gn.FullSweep()
	fault.repo.Global.OnOp(nil)
	if err == nil {
		return res, fmt.Errorf("chaos repl: sweep succeeded with a dead quorum — must fail loudly")
	}
	if !errors.Is(err, repl.ErrNoQuorum) {
		return res, fmt.Errorf("chaos repl: dead-quorum sweep failed with the wrong error: %w", err)
	}
	res.NoQuorumErrors++
	opts.Log("dead-quorum sweep failed loudly: %v", err)
	if err := restartAll(fault.repo, res); err != nil {
		return res, fmt.Errorf("chaos repl: %w", err)
	}
	if _, err := fault.gn.FullSweep(); err != nil {
		return res, fmt.Errorf("chaos repl: re-sweep after quorum restart: %w", err)
	}
	if _, err := twin.gn.FullSweep(); err != nil {
		return res, fmt.Errorf("chaos repl: twin re-sweep: %w", err)
	}
	if err := assertTwinEqual(fault, twin, res); err != nil {
		return res, fmt.Errorf("chaos repl: after quorum recovery: %w", err)
	}

	// Roll up the groups' own counters before the process reboot below
	// replaces them with fresh (zeroed) groups.
	for _, g := range fault.repo.ReplGroups {
		st := g.ReplStats()
		res.Failovers += st.Failovers
		res.NodeFailures += st.NodeFailures
	}
	if fault.repo.ReplDowntime != nil {
		res.DowntimeVirtual = fault.repo.ReplDowntime.CPUPhase(repl.PhaseFailover)
	}

	// Scenario 3: full-process reboot of the fault repo. core.OpenRepo
	// must recover every shard group from its shared log and serve the
	// same bytes.
	reopened, err := core.OpenRepo(fault.mem, cfg)
	if err != nil {
		return res, fmt.Errorf("chaos repl: reopen: %w", err)
	}
	fault.repo = reopened
	fault.ln = lnode.New(reopened, "repl-l0")
	fault.gn = gnode.New(reopened)
	res.LiveVersions = 0
	if err := assertTwinEqual(fault, twin, res); err != nil {
		return res, fmt.Errorf("chaos repl: after process reboot: %w", err)
	}
	for _, r := range []*replRepo{fault, twin} {
		if err := r.mem.Check(); err != nil {
			return res, fmt.Errorf("chaos repl: seed %d: %w", opts.Seed, err)
		}
	}
	return res, nil
}

// genSeeded produces deterministic content from its own seed, independent
// of harness state (both twins must see identical bytes).
func genSeeded(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}
