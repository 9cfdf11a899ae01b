// Package chaos is the one seeded fault-injection runner for the whole
// system: one schedule of operations drawn from one RNG, run against one
// repository of any layout — plain, erasure-coded, sharded and replicated
// — and checked against one model, map[file][]{version, bytes}.
//
// Faults are of two kinds. A transparent fault is what the layout's
// redundancy is sold to absorb — at most M backends dark or holding rotted
// shards while objects are read, a dead leader with a quorum left — and
// must change no outcome: reads are held to the model, and a sweep under
// leader kills to the same sweep on a fork of the store with the kills left
// out (stats, index, container metadata, restored bytes). A loud fault — a
// crash (oss.CrashAfter: no mutation lands after it), payload rot, a write
// while a backend is dark, a dead quorum, transient read faults — may fail
// the operation with an error that names its cause, never with wrong bytes;
// a failed mutation is followed by a reboot (journal and WAL replay), after
// which it has committed whole or not at all.
//
// After the schedule a heal phase reboots, scrubs and sweeps; every version
// that survived (scrub reports unrecoverable loss explicitly) must restore
// byte-identical, a second scrub must find nothing to do, and the structural
// invariants (check) must hold, as after every sweep on the way. A failing
// run names its seed, layout and op; Options.Log gets the trace.
package chaos

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/ec"
	"slimstore/internal/fingerprint"
	"slimstore/internal/gnode"
	"slimstore/internal/kvstore"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/repl"
)

// Options configures a run; a zero field selects its default (Seed 0 is a seed).
type Options struct {
	Seed  int64
	Ops   int // operations to draw (default 200)
	Files int // distinct backup streams (default 3)
	// Layout is the repository's: the four layout fields of core.Config, zero
	// for the plain one. What it has decides which faults can be drawn.
	Layout struct{ ECDataShards, ECParityShards, GlobalShards, GlobalReplicas int }
	Log    func(format string, args ...any) // the op trace, on request
}

// Result counts what a run did and what the invariants caught.
type Result struct {
	Backups, Restores, RangeRestores, Optimizes, Deletes, Scrubs, Sweeps, Storms int

	Crashes             int // mutations killed by oss.CrashAfter
	Reboots             int // repository reopens (journal and WAL replay run each time)
	FaultedReads        int // restores under a transient read-fault rate
	CorruptionsInjected int // payloads rotted at rest, beyond any redundancy

	Outages, ShardsRotted           int           // backends taken dark, shard objects bit-flipped at rest (EC)
	DegradedStripes, RepairedShards int           // stripes scrub found short of K+M, shards it rebuilt
	DegradedReads                   int64         // reads the tier served by reconstruction
	LeaderKills                     int           // leaders crashed mid-sweep, every group's once per sweep
	Failovers                       int64         // elections the groups ran to route around them
	DowntimeVirtual                 time.Duration // virtual failover cost charged to the sim clock
	NoQuorumErrors, Restarts        int           // sweeps a dead quorum failed loudly; in-process replica restarts

	LoudFailures                int // operations that failed with a cause outstanding
	RepairedChunks, Quarantined int
	DataLossDetected            int // versions scrub declared unrecoverable (loudly)
	SilentCorruptions           int // restores returning wrong bytes — must stay 0
	LiveVersions                int // versions alive and verified byte-identical after heal
}

type version struct {
	ver  int
	data []byte
}

type file struct {
	id       string
	versions []version
	pending  *lnode.BackupStats // the last backup's stats, until an optimize succeeds with them
}

// world is one process over one store: Frozen(Mem) → faulty (outages, read
// faults) → the crash, armed for one mutation at a time → core.OpenRepo → one
// L-node, one G-node. tier is the harness's own view of the stripes, past both.
type world struct {
	mem    *oss.Frozen // the store of record; Check proves no one wrote through a read
	faulty *oss.Faulty
	crash  atomic.Pointer[oss.Crash]
	tier   *ec.Store // nil without EC
	whole  oss.Store // tier, or mem without EC: where a payload is one object
	repo   *core.Repo
	ln     *lnode.LNode
	gn     *gnode.GNode
}

// Do implements oss.Layer: the crash, while one is armed.
func (w *world) Do(op oss.Op, next oss.Store) (oss.Op, error) {
	if c := w.crash.Load(); c != nil {
		return c.Do(op, next)
	}
	return oss.Do(next, op)
}

func open(mem *oss.Mem, cfg core.Config) (*world, error) {
	w := &world{mem: oss.NewFrozen(mem)}
	w.faulty, w.whole = oss.NewFaulty(w.mem), w.mem
	if k, m := cfg.ECDataShards, cfg.ECParityShards; k > 0 {
		w.tier, _ = ec.NewStore(oss.NewBackendSet(w.mem, k+m, cfg.Costs), k, m, cfg.Costs)
		w.whole = w.tier
	}
	return w, w.boot(cfg)
}

// boot is a process start: every fault is cleared, what the last process
// held in memory (buffered index writes, caches, which replicas it thought
// dead) is gone, and the open replays the intent journal and the index's logs.
func (w *world) boot(cfg core.Config) error {
	w.faulty.Clear()
	w.crash.Store(nil)
	repo, err := core.OpenRepo(oss.With(w.faulty, w), cfg)
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	w.repo, w.ln, w.gn = repo, lnode.New(repo, "chaos-l0"), gnode.New(repo)
	return nil
}

type harness struct {
	opts    Options
	rng     *rand.Rand
	cfg     core.Config
	w       *world
	files   []*file
	shared  []byte // a block every fresh file starts with: duplicates across files, for the G-node
	res     *Result
	sc      *gnode.ScrubStats // what the last scrub reported
	healing bool              // the schedule is over: no crash is drawn, no failure excused

	// Causes outstanding: while one is, an operation may fail loudly.
	dirty  bool  // a payload rotted since the last scrub
	dark   []int // backends in outage (EC); with rotted, at most M
	rotted []int // backends holding rotted shards since the last scrub (EC)
	torn   bool  // a failed mutation may have torn stripe writes since the last scrub (EC)
}

// row is one operation of the schedule's table — one mix, plus what the layout
// has — drawn with probability weight/total.
type row struct {
	name   string
	weight int
	run    func() error
}

// errSilent is the one failure nothing excuses: a restore returned wrong bytes.
var errSilent = errors.New("SILENT CORRUPTION")

// Run executes a seeded schedule and returns its counters. A non-nil error
// means an invariant was violated; fault-induced loud failures are not errors.
func Run(opts Options) (*Result, error) {
	opts.Ops, opts.Files = cmp.Or(opts.Ops, 200), cmp.Or(opts.Files, 3)
	if opts.Log == nil {
		opts.Log = func(string, ...any) {}
	}
	cfg := core.DefaultConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(4 << 10)
	cfg.ContainerCapacity = 128 << 10
	cfg.SegmentChunks = 64
	cfg.SampleRatio = 8
	cfg.ChunkMerging = false
	cfg.CacheMemBytes = 16 << 20
	cfg.CacheDiskBytes = 64 << 20
	cfg.LAWChunks = 256
	cfg.PrefetchThreads = 0 // keep the schedule fully deterministic
	cfg.SparseUtilization = 0.9
	l := opts.Layout
	cfg.ECDataShards, cfg.ECParityShards, cfg.GlobalShards, cfg.GlobalReplicas = l.ECDataShards, l.ECParityShards, l.GlobalShards, l.GlobalReplicas

	h := &harness{opts: opts, rng: rand.New(rand.NewSource(opts.Seed)), res: &Result{}}
	fail := func(where string, err error) (*Result, error) {
		if errors.Is(err, errSilent) {
			h.res.SilentCorruptions++
		}
		return h.res, fmt.Errorf("chaos: seed %d layout %+v %s: %w", opts.Seed, l, where, err)
	}
	var err error
	if h.w, err = open(oss.NewMem(), cfg); err != nil {
		return fail("open", err)
	}
	h.cfg = h.w.repo.Config // the layout as the header settled it
	h.shared = h.gen(96 << 10)
	for i := 0; i < opts.Files; i++ {
		h.files = append(h.files, &file{id: fmt.Sprintf("file-%d", i)})
	}

	table := []row{
		{"backup", 30, h.opBackup},
		{"restore", 22, func() error { return h.opRestore(false) }},
		{"range-restore", 10, func() error { return h.opRestore(true) }},
		{"optimize", 12, h.opOptimize},
		{"delete", 8, h.opDelete},
		{"rot", 7, h.opRot},
		{"scrub", 5, h.opScrub},
		{"sweep", 6, h.opSweep},
		{"storm", 4, h.opStorm},
	}
	if h.w.tier != nil {
		table = append(table,
			row{"outage", 4, func() error { return h.opDamage(false) }},
			row{"shard-rot", 4, func() error { return h.opDamage(true) }})
	}
	if len(h.w.repo.ReplGroups) > 0 {
		table = append(table,
			row{"leader-kill", 4, func() error { return h.sweepBesideTwin(false) }},
			row{"quorum-kill", 2, func() error { return h.sweepBesideTwin(true) }},
			row{"restart", 2, h.restart})
	}
	total := 0
	for _, r := range table {
		total += r.weight
	}
	for i := 0; i < opts.Ops; i++ {
		p := h.rng.Intn(total)
		for _, r := range table {
			if p -= r.weight; p < 0 {
				opts.Log("op %d: %s", i, r.name)
				if err := r.run(); err != nil {
					return fail(fmt.Sprintf("op %d (%s)", i, r.name), err)
				}
				break
			}
		}
	}
	if err := h.heal(); err != nil {
		return fail("heal", err)
	}
	h.bank()
	if err := h.w.mem.Check(); err != nil {
		return fail("end", err)
	}
	return h.res, nil
}

// bank moves the counters that die with a process into the result.
func (h *harness) bank() {
	if t := h.w.repo.EC; t != nil {
		h.res.DegradedReads += t.Stats().DegradedReads
	}
	for _, g := range h.w.repo.ReplGroups {
		h.res.Failovers += g.ReplStats().Failovers
	}
	if d := h.w.repo.ReplDowntime; d != nil {
		h.res.DowntimeVirtual += d.CPUPhase(repl.PhaseFailover)
	}
}

// reboot simulates a process crash and restart. Outages end with it (an
// operator's fix, like the restart itself); rot at rest does not.
func (h *harness) reboot() error {
	h.bank()
	h.dark = nil
	h.res.Reboots++
	return h.w.boot(h.cfg)
}

// gen produces deterministic pseudo-random content from the harness RNG.
func (h *harness) gen(n int) []byte {
	b := make([]byte, n)
	h.rng.Read(b)
	return b
}

// nextData evolves a file's content: mostly point mutations of the latest
// version (exercising dedup and sparse containers), sometimes fresh data
// behind the block all files share.
func (h *harness) nextData(f *file) []byte {
	if len(f.versions) == 0 || h.rng.Intn(4) == 0 {
		return append(bytes.Clone(h.shared), h.gen(160<<10+h.rng.Intn(512<<10))...)
	}
	data := bytes.Clone(f.versions[len(f.versions)-1].data)
	for i := 0; i < 4+h.rng.Intn(12); i++ {
		data[h.rng.Intn(len(data))] ^= byte(1 + h.rng.Intn(255))
	}
	if h.rng.Intn(3) == 0 { // grow the tail
		data = append(data, h.gen(16<<10+h.rng.Intn(64<<10))...)
	}
	return data
}

// pick draws a file holding at least n versions, or nil.
func (h *harness) pick(n int) *file {
	c := slices.DeleteFunc(slices.Clone(h.files), func(f *file) bool { return len(f.versions) < n })
	if len(c) == 0 {
		return nil
	}
	return c[h.rng.Intn(len(c))]
}

// restore restores v of f on w, all of it or n bytes from off, and holds it
// to the model: a loud failure is returned as it is, wrong bytes as errSilent.
func restore(w *world, f *file, v version, ranged bool, off, n int64) (err error) {
	var buf bytes.Buffer
	want := v.data
	if ranged {
		want = want[off:min(off+n, int64(len(want)))]
		_, err = w.ln.RestoreRange(f.id, v.ver, off, n, &buf)
	} else {
		_, err = w.ln.Restore(f.id, v.ver, &buf)
	}
	if err == nil && !bytes.Equal(buf.Bytes(), want) {
		err = fmt.Errorf("%w: restore %s v%d (ranged %v: %d,+%d) returned wrong bytes", errSilent, f.id, v.ver, ranged, off, n)
	}
	return err
}

// explained: err has a cause outstanding. Rot fails an operation in as many
// ways as a payload has readers. A loud fault armed on this operation — the
// crash, the read-fault rate, for a mutation a dark backend (an outage of at
// most M must fail no read) — has to be recognisable in what comes back. What
// a torn deletion leaves of a stripe is ErrInsufficient to a reader whose
// recipe still names the container, until a scrub clears it (ROADMAP).
func (h *harness) explained(err error, armed bool) bool {
	named := errors.Is(err, oss.ErrInjected) || errors.Is(err, repl.ErrNoQuorum) || errors.Is(err, ec.ErrInsufficient)
	return !errors.Is(err, errSilent) && !h.healing &&
		(h.dirty || armed && named || h.torn && errors.Is(err, ec.ErrInsufficient))
}

// excuse counts a failure that is explained and returns one that is not.
func (h *harness) excuse(op string, err error, armed bool) error {
	if err == nil {
		return nil
	}
	if !h.explained(err, armed) {
		return fmt.Errorf("%s failed with no cause outstanding (armed=%v dark=%v torn=%v): %w", op, armed, h.dark, h.torn, err)
	}
	h.opts.Log("  %s failed loudly: %v", op, err)
	h.res.LoudFailures++
	return nil
}

// mutation is one mutating operation on the live world, and what it may do
// to the model: version ver of f may appear (data is what it must restore
// to) or, with data nil, vanish; f nil changes no version.
type mutation struct {
	name   string
	budget int // the crash lands before mutation rand(budget) of the store
	call   func() error
	count  *int // of the calls that succeeded
	f      *file
	ver    int
	data   []byte
}

// degraded: some stripe may be short of K+M shards of one generation.
func (h *harness) degraded() bool { return h.torn || len(h.dark)+len(h.rotted) > 0 }

// mutate runs m, one time in four under a crash; ok reports that the call
// succeeded, in which case the version it names must have committed. On an EC
// layout a crash may tear an in-place rewrite of a striped object (a meta, a
// compacted payload), leaving a of K+M shards new. One side keeps K as long as
// K ≤ M+1 and the stripe loses no shard to anything else — an outage, rot, an
// unrepaired tear; beyond that the tear is loud and permanent (DESIGN.md §12,
// ec.TestStoreTornRewrite): the protocol's to fix, so no crash is drawn.
func (h *harness) mutate(m mutation) (ok bool, err error) {
	n, crash := h.rng.Intn(m.budget), (*oss.Crash)(nil)
	if h.rng.Intn(4) == 0 && !h.healing && (h.w.tier == nil || h.cfg.ECDataShards <= h.cfg.ECParityShards+1 && !h.degraded()) {
		crash = oss.CrashAfter(n)
		h.w.crash.Store(crash)
	}
	err = m.call()
	h.w.crash.Store(nil)
	// A spent budget is a dead process, whatever the call returned.
	return h.finish(m, err, crash != nil && crash.Spent() == n)
}

// finish settles a mutation that returned err: a failure must have a cause,
// the process is restarted, and the store says what became of the version.
func (h *harness) finish(m mutation, err error, crashed bool) (bool, error) {
	if xerr := h.excuse(m.name, err, crashed || len(h.dark) > 0); xerr != nil {
		return false, xerr
	}
	if crashed {
		h.res.Crashes++
	}
	var done bool
	var serr error
	if err != nil || crashed {
		h.torn = h.w.tier != nil // by the crash, or by the puts a dark backend refused
		serr = h.reboot()
	}
	if serr == nil {
		done, serr = h.settle(m)
	}
	if serr == nil && err == nil && m.f != nil && !done {
		serr = fmt.Errorf("acknowledged, and its version of %s did not commit", m.f.id)
	}
	if serr != nil {
		return false, fmt.Errorf("after %s (crashed=%v, err=%v): %w", m.name, crashed, err, serr)
	}
	if err == nil {
		*m.count++
	}
	return err == nil, nil
}

// settle reconciles the model with the store: every file must hold
// exactly the model's versions, except that the version m names may have
// appeared — committed whole, so it restores to m.data — or vanished.
func (h *harness) settle(m mutation) (done bool, err error) {
	for _, f := range h.files {
		vs, err := h.w.repo.Recipes.Versions(f.id)
		if err != nil {
			return false, err
		}
		for i := len(f.versions) - 1; i >= 0; i-- {
			v := f.versions[i].ver
			if j := slices.Index(vs, v); j >= 0 {
				vs = slices.Delete(vs, j, j+1)
			} else if f == m.f && m.data == nil && v == m.ver {
				f.versions, done = slices.Delete(f.versions, i, i+1), true
			} else {
				return false, fmt.Errorf("%s lost v%d", f.id, v)
			}
		}
		if len(vs) == 0 {
			continue
		}
		if f != m.f || m.data == nil || len(vs) > 1 {
			return false, fmt.Errorf("%s has unknown versions %v", f.id, vs)
		}
		v := version{vs[0], m.data}
		if err := restore(h.w, f, v, false, 0, 0); err != nil && !h.explained(err, false) {
			return false, fmt.Errorf("half-committed backup: %s v%d is registered and does not restore: %w", f.id, v.ver, err)
		}
		f.versions, done = append(f.versions, v), true
	}
	return done, nil
}

func (h *harness) opBackup() error {
	f := h.files[h.rng.Intn(len(h.files))]
	m := mutation{name: "backup", budget: 120, count: &h.res.Backups, f: f, data: h.nextData(f)}
	m.call = func() error {
		st, err := h.w.ln.Backup(f.id, m.data)
		if err == nil {
			f.pending = st
			h.opts.Log("  backup %s v%d new=%v sparse=%v", f.id, st.Version, st.NewContainers, st.SparseContainers)
		}
		return err
	}
	_, err := h.mutate(m)
	return err
}

func (h *harness) opRestore(ranged bool) error {
	f := h.pick(1)
	if f == nil {
		return h.opBackup()
	}
	v := f.versions[h.rng.Intn(len(f.versions))]
	// One in five runs under a transient read-fault rate: it may fail loudly, not inexactly.
	faulted := h.rng.Intn(5) == 0
	if faulted {
		h.w.faulty.SetRand(rand.New(rand.NewSource(h.rng.Int63())))
		h.w.faulty.FailRate(0.05)
		h.res.FaultedReads++
		defer h.w.faulty.FailRate(0)
	}
	var off, n int64
	if ranged {
		off, n = int64(h.rng.Intn(len(v.data))), int64(1+h.rng.Intn(len(v.data)))
		h.res.RangeRestores++
	} else {
		h.res.Restores++
	}
	return h.excuse("restore", restore(h.w, f, v, ranged, off, n), faulted)
}

func (h *harness) opOptimize() error {
	i := slices.IndexFunc(h.files, func(f *file) bool { return f.pending != nil })
	if i < 0 {
		return h.opBackup()
	}
	f, st := h.files[i], h.files[i].pending
	ok, err := h.mutate(mutation{name: "optimize", budget: 60, count: &h.res.Optimizes, call: func() error {
		_, _, err := h.w.gn.Optimize(st.FileID, st.Version, st.NewContainers, st.SparseContainers)
		return err
	}})
	// A pass that failed is run again by a later optimize, as a job engine would.
	if ok {
		f.pending = nil
	}
	return err
}

func (h *harness) opDelete() error {
	f := h.pick(2)
	if f == nil {
		return h.opBackup()
	}
	target := f.versions[h.rng.Intn(len(f.versions)-1)].ver // keep the newest version
	h.opts.Log("  delete %s v%d", f.id, target)
	_, err := h.mutate(mutation{name: "delete", budget: 40, count: &h.res.Deletes, f: f, ver: target, call: func() error {
		_, err := h.w.gn.DeleteVersion(f.id, target)
		return err
	}})
	return err
}

// opRot flips one byte of a container payload beyond what any redundancy can
// repair (on an EC layout the damaged payload is striped whole, as if rotted
// before it was encoded): the read path must catch it, scrub heal or quarantine.
func (h *harness) opRot() error {
	ids, err := h.w.repo.Containers.List()
	if err != nil {
		return err
	}
	if len(ids) == 0 {
		return h.opBackup()
	}
	if err := h.flip(h.w.whole, container.DataKey(ids[h.rng.Intn(len(ids))])); errors.Is(err, oss.ErrNotFound) || errors.Is(err, ec.ErrInsufficient) {
		return nil // a drop cut short by a crash: the meta is still listed, the payload is gone
	} else if err != nil {
		return err
	}
	h.dirty = true
	h.res.CorruptionsInjected++
	return nil
}

// flip rots one byte of an object at rest: a Put of damaged bytes (a read is read-only).
func (h *harness) flip(s oss.Store, key string) error {
	raw, err := s.Get(key)
	if err != nil {
		return err
	}
	raw = bytes.Clone(raw)
	raw[h.rng.Intn(len(raw))] ^= byte(1 + h.rng.Intn(255))
	h.opts.Log("  rotted %s", key)
	return s.Put(key, raw)
}

// scrub is the scrub as a mutation.
func (h *harness) scrub() mutation {
	return mutation{name: "scrub", budget: 60, count: &h.res.Scrubs, call: func() (err error) {
		h.sc, err = h.w.gn.Scrub()
		return err
	}}
}

func (h *harness) opScrub() error {
	if ok, err := h.mutate(h.scrub()); !ok {
		return err
	}
	return h.scrubbed()
}

// scrubbed accounts for a scrub that ran to its end: every outstanding
// flip is now repaired or quarantined, every shard it could reach
// rewritten, and the versions it declared lost are retired.
func (h *harness) scrubbed() error {
	h.opts.Log("  scrub: %+v", *h.sc)
	h.res.RepairedChunks += h.sc.RepairedChunks
	h.res.Quarantined += len(h.sc.Quarantined)
	h.res.DegradedStripes += h.sc.ECDegradedStripes
	h.res.RepairedShards += h.sc.ECRepairedShards
	if h.sc.ECRepairFailures == 0 {
		h.rotted, h.torn = nil, false
	}
	// A scrub that crashed after quarantining a container lost its loss
	// report: the next one is clean and the versions that needed the container
	// do not restore (ROADMAP). So after rot every version is looked at.
	if h.sc.Clean() && !h.dirty {
		return nil
	}
	h.dirty = false
	h.lift()
	_, err := h.audit(h.w, true)
	return err
}

// audit restores every model version on w, whole and by range, no fault armed,
// and counts the ones that live. A loud failure is an error unless rot is
// outstanding or — after a scrub — retire is set: then it is detected data loss,
// and the version is retired from the store too, as an operator would (left
// registered, it would keep the store numbering above it).
func (h *harness) audit(w *world, retire bool) (live int, err error) {
	for _, f := range h.files {
		for i := len(f.versions) - 1; i >= 0; i-- {
			v := f.versions[i]
			err := restore(w, f, v, false, 0, 0)
			if err == nil {
				err = restore(w, f, v, true, int64(len(v.data)/3), int64(len(v.data)/3))
			}
			switch {
			case err == nil:
				live++
			case errors.Is(err, errSilent) || !retire && !h.explained(err, false):
				return live, err
			case retire:
				h.opts.Log("  data loss: %s v%d: %v", f.id, v.ver, err)
				h.res.DataLossDetected++
				if _, err := w.gn.DeleteVersion(f.id, v.ver); err != nil {
					return live, fmt.Errorf("retiring lost version %s v%d: %w", f.id, v.ver, err)
				}
				f.versions = slices.Delete(f.versions, i, i+1)
			}
		}
	}
	return live, nil
}

func (h *harness) opSweep() error {
	ok, err := h.mutate(mutation{name: "sweep", budget: 40, count: &h.res.Sweeps, call: func() error {
		_, err := h.w.gn.FullSweep()
		return err
	}})
	if !ok {
		return err
	}
	return h.check(true)
}

// opStorm is a burst of restores, drawn up front, beside one scrub — the read
// path and the repair path at once, under whatever is outstanding: dark backends,
// rotted shards, dead leaders, rot. Without rot every restore must succeed.
func (h *harness) opStorm() error {
	var files []*file
	var versions []version
	for i := 0; i < 6; i++ {
		if f := h.pick(1); f != nil {
			files, versions = append(files, f), append(versions, f.versions[h.rng.Intn(len(f.versions))])
		}
	}
	errs := make([]error, len(files))
	var wg sync.WaitGroup
	for i := range files {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := restore(h.w, files[i], versions[i], false, 0, 0); err != nil && !h.explained(err, false) {
				errs[i] = fmt.Errorf("beside a scrub, backends %v dark, %v rotted: %w", h.dark, h.rotted, err)
			}
		}()
	}
	m := h.scrub()
	err := m.call()
	wg.Wait()
	h.res.Storms++
	h.res.Restores += len(files)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if ok, err := h.finish(m, err, false); !ok {
		return err
	}
	return h.scrubbed()
}

// opDamage takes backends dark, or bit-flips a few of their shard objects, and
// runs a storm over the damage: never more than M backends dark or rotted
// together, so every stripe keeps K shards of its generation, and none while a
// tear is unrepaired — a torn stripe reads as whichever side has K, and one
// more lost shard changes which. An outage stays: reads go on through it, the
// next write under it fails loudly, and the reboot that follows (or this op,
// with nothing left to spare) ends it.
func (h *harness) opDamage(rot bool) error {
	k, m := h.cfg.ECDataShards, h.cfg.ECParityShards
	spare := slices.DeleteFunc(h.rng.Perm(k+m), func(b int) bool { return slices.Contains(h.dark, b) || slices.Contains(h.rotted, b) })
	spare = spare[:max(0, min(len(spare), m-len(h.dark)-len(h.rotted)))]
	if h.torn || len(spare) == 0 {
		h.lift()
		return h.opScrub()
	}
	for _, b := range spare[:1+h.rng.Intn(len(spare))] {
		if !rot {
			h.w.faulty.SetOutage(oss.BackendPrefix(b), true)
			h.dark = append(h.dark, b)
			h.res.Outages++
			continue
		}
		keys, err := h.w.mem.List(oss.BackendPrefix(b) + container.Prefix)
		if err != nil {
			return err
		}
		for j := 0; j < 1+h.rng.Intn(3) && len(keys) > 0; j++ {
			if err := h.flip(h.w.mem, keys[h.rng.Intn(len(keys))]); err != nil {
				return err
			}
			h.res.ShardsRotted++
		}
		h.rotted = append(h.rotted, b)
	}
	h.opts.Log("  backends %v dark, %v rotted", h.dark, h.rotted)
	return h.opStorm()
}

// lift ends every outage (nothing else is armed on faulty between operations).
func (h *harness) lift() {
	h.w.faulty.Clear()
	h.dark = nil
}

// restart restarts every dead replica in process — nothing in the product
// does (ROADMAP): one stays dead until this or a reboot — and all must agree.
func (h *harness) restart() error {
	for k, g := range h.w.repo.ReplGroups {
		for id := 0; id < h.cfg.GlobalReplicas; id++ {
			if err := g.Restart(id); err != nil {
				return fmt.Errorf("restart shard %d replica %d: %w", k, id, err)
			}
		}
	}
	h.res.Restarts++
	return h.replicasAgree()
}

// replicasAgree: with every replica alive and synced, each one, opened
// cold from the store, scans equal to what its group's leader serves.
func (h *harness) replicasAgree() error {
	if err := h.w.repo.Global.Sync(); err != nil {
		return err
	}
	for k, g := range h.w.repo.ReplGroups {
		want, err := dump(g.Scan)
		if err != nil {
			return err
		}
		for id := 0; id < h.cfg.GlobalReplicas; id++ {
			kv := h.cfg.GlobalKV
			kv.Prefix = fmt.Sprintf("gidx/s%d/n%d/", k, id)
			db, err := kvstore.Open(h.w.mem, kv)
			if err != nil {
				return err
			}
			if got, err := dump(db.Scan); err != nil || got != want {
				return fmt.Errorf("shard %d replica %d does not scan equal to its leader (%d bytes against %d, err %v)", k, id, len(got), len(want), err)
			}
		}
	}
	return nil
}

// dump is an index as text, less a replica's position marker (no fingerprint).
func dump(scan func(start, end []byte, fn func(k, v []byte) bool) error) (string, error) {
	var b strings.Builder
	err := scan(nil, nil, func(k, v []byte) bool {
		if len(k) == fingerprint.Size {
			fmt.Fprintf(&b, "%x=%x\n", k, v)
		}
		return true
	})
	return b.String(), err
}

// sweepBesideTwin holds a FullSweep under replica faults to a twin: the live
// process is restarted, the store forked, and the same sweep run first on the
// fork, with no fault. Then every group's leader is killed once, spread over the
// index operations the twin's sweep took (Sharded.OnOp is the clock): a quorum
// survives, so stats and state must equal the twin's. Or a quorum of one group
// is killed at the first index operation: a sweep that needs the group must fail
// with ErrNoQuorum, and with the replicas restarted a second one must end where
// the twin's did — idempotent.
func (h *harness) sweepBesideTwin(quorum bool) error {
	if err := h.reboot(); err != nil {
		return err
	}
	fork := oss.NewMem()
	keys, err := h.w.mem.List("")
	for i := 0; err == nil && i < len(keys); i++ {
		var b []byte
		if b, err = h.w.mem.Get(keys[i]); err == nil {
			err = fork.Put(keys[i], b)
		}
	}
	if err != nil {
		return err
	}
	tw, err := open(fork, h.cfg)
	if err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	base := tw.repo.Global.Ops()
	want, err := tw.gn.FullSweep()
	if err != nil {
		return h.excuse("twin sweep", err, false)
	}
	span := tw.repo.Global.Ops() - base

	groups := h.w.repo.ReplGroups
	victim := groups[h.rng.Intn(len(groups))]
	var mu sync.Mutex
	fired, start := 0, h.w.repo.Global.Ops()
	h.w.repo.Global.OnOp(func(n int64) {
		mu.Lock()
		defer mu.Unlock()
		if quorum {
			for ; fired < victim.ReplStats().Quorum; fired++ {
				victim.Kill(fired)
			}
			return
		}
		for fired < len(groups) && n > start+span*int64(fired)/int64(len(groups)) {
			h.opts.Log("  index op %d: killed shard %d leader (replica %d)", n, fired, groups[fired].KillLeader())
			h.res.LeaderKills++
			fired++
		}
	})
	got, err := h.w.gn.FullSweep()
	h.w.repo.Global.OnOp(nil)
	if quorum { // the group is dead whether or not the sweep asked it anything
		if rerr := h.restart(); rerr != nil {
			return rerr
		}
		if errors.Is(err, repl.ErrNoQuorum) {
			h.opts.Log("  dead-quorum sweep failed loudly: %v", err)
			h.res.NoQuorumErrors++
			_, err = h.w.gn.FullSweep()
			got = want // two sweeps split the work of one: only where they end is the twin's
		}
	}
	if err != nil {
		return fmt.Errorf("sweep under %d replica kills (of a quorum: %v): %w", fired, quorum, err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("sweep stats diverge under leader kills:\nlive: %+v\ntwin: %+v", got, want)
	}
	h.res.Sweeps++
	var text [2]string
	for i, w := range []*world{h.w, tw} {
		if _, err := h.audit(w, false); err != nil {
			return fmt.Errorf("world %d: %w", i, err)
		}
		st, err := w.state(h.torn)
		if err != nil {
			return fmt.Errorf("world %d: %w", i, err)
		}
		text[i] = st.text
	}
	if text[0] != text[1] {
		return fmt.Errorf("index or container metadata diverge from the fault-free twin's:\n--- live ---\n%s--- twin ---\n%s", text[0], text[1])
	}
	if err := tw.mem.Check(); err != nil {
		return fmt.Errorf("twin: %w", err)
	}
	return h.check(true)
}

// state is what a repository holds, read through its own stores: the
// index, the fingerprints each container lists (true: live), and both as
// one canonical text for comparing two repositories.
type state struct {
	index map[fingerprint.FP]container.ID
	live  map[container.ID]map[fingerprint.FP]bool
	text  string
}

// state reads it; torn skips a container whose meta has fewer than K shards: what
// a crash inside its first meta put, or its deletion, leaves until a scrub or sweep.
func (w *world) state(torn bool) (*state, error) {
	st := &state{index: map[fingerprint.FP]container.ID{}, live: map[container.ID]map[fingerprint.FP]bool{}}
	var text strings.Builder
	if err := w.repo.Global.Scan(func(fp fingerprint.FP, id container.ID) bool {
		st.index[fp] = id
		fmt.Fprintf(&text, "%s -> %s\n", fp.Short(), id)
		return true
	}); err != nil {
		return nil, err
	}
	ids, err := w.repo.Containers.List()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		m, err := w.repo.Containers.ReadMeta(id)
		if torn && (errors.Is(err, ec.ErrInsufficient) || errors.Is(err, oss.ErrNotFound)) {
			continue
		} else if err != nil {
			return nil, fmt.Errorf("meta %s: %w", id, err)
		}
		fmt.Fprintf(&text, "%s size=%d\n", id, m.DataSize)
		st.live[id] = map[fingerprint.FP]bool{}
		for _, cm := range m.Chunks {
			fmt.Fprintf(&text, "  %s off=%d size=%d deleted=%v\n", cm.FP.Short(), cm.Offset, cm.Size, cm.Deleted)
			st.live[id][cm.FP] = st.live[id][cm.FP] || !cm.Deleted
		}
	}
	st.text = text.String()
	return st, nil
}

// check holds the live repository to the structural invariants: the store
// holds exactly the model's versions; every index entry names a container
// that lists that fingerprint; every chunk record of every version resolves
// — at its home or through the index — to a live chunk of an existing
// container; after a sweep no container is left that no record resolves to;
// and, with no damage outstanding, every stripe is K+M shards of one
// generation that a fresh encode of the object reproduces byte for byte.
func (h *harness) check(swept bool) error {
	if _, err := h.settle(mutation{}); err != nil {
		return err
	}
	if h.dirty { // metadata waits for the scrub that settles the rot
		return nil
	}
	st, err := h.w.state(h.torn)
	if err != nil {
		return err
	}
	for fp, id := range st.index {
		// A drop syncs its index deletes before its objects go, and a scrub
		// its repoints before it quarantines, so no crash leaves an entry
		// naming a container that is gone.
		if _, lists := st.live[id][fp]; !lists {
			return fmt.Errorf("index entry %s names %s, which does not list it", fp.Short(), id)
		}
	}
	reached := map[container.ID]bool{}
	for _, f := range h.files {
		for _, v := range f.versions {
			r, err := h.w.repo.Recipes.GetRecipe(f.id, v.ver)
			if err != nil {
				return err
			}
			for _, seg := range r.Segments {
				for _, rec := range seg.Records {
					id := rec.Container
					if !st.live[id][rec.FP] {
						if id = st.index[rec.FP]; !st.live[id][rec.FP] {
							return fmt.Errorf("%s v%d: chunk %s resolves to no live chunk (home %s, index %s)", f.id, v.ver, rec.FP.Short(), rec.Container, id)
						}
					}
					reached[id] = true
				}
			}
		}
	}
	for id := range st.live {
		if swept && !reached[id] {
			return fmt.Errorf("the sweep left %s, which no chunk record resolves to", id)
		}
		if h.w.tier == nil || h.degraded() {
			continue
		}
		for _, key := range []string{container.DataKey(id), container.MetaKey(id)} {
			data, err := h.w.tier.Get(key)
			if err != nil {
				return err
			}
			var gen ec.ShardHeader
			for i, payload := range h.w.tier.Codec().Encode(data) {
				raw, err := h.w.mem.Get(oss.BackendPrefix(i) + key)
				if err == nil && i == 0 {
					gen, _, err = ec.DecodeShard(raw)
				}
				if gen.Index = i; err != nil || !bytes.Equal(raw, ec.EncodeShard(gen, payload)) {
					return fmt.Errorf("stripe %s shard %d is not the encoding of the object in shard 0's generation %+v (%v)", key, i, gen, err)
				}
			}
		}
	}
	return nil
}

// heal ends the run: reboot (every fault cleared), scrub, sweep and check —
// then every surviving version must restore byte-identical, a second scrub
// find a healthy repository at full redundancy, and the replicas agree.
func (h *harness) heal() (err error) {
	h.healing = true
	for _, step := range []func() error{h.reboot, h.opScrub, h.opSweep} {
		if err := step(); err != nil {
			return err
		}
	}
	if h.res.LiveVersions, err = h.audit(h.w, false); err != nil {
		return err
	}
	sc, err := h.w.gn.Scrub()
	if err != nil {
		return fmt.Errorf("post-heal scrub: %w", err)
	}
	h.res.Scrubs++
	if !sc.Clean() || sc.CorruptChunks+sc.FooterRepairs+sc.RebuiltContainers+sc.ECDegradedStripes+sc.ECRepairedShards != 0 {
		return fmt.Errorf("repo not healthy after heal: %+v", sc)
	}
	return h.replicasAgree()
}
