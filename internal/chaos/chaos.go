// Package chaos is a seeded fault-injection harness for the whole system.
// It drives randomized backup / restore / compact / delete / scrub cycles
// against an in-memory OSS while injecting crashes (put budgets that run
// out mid-operation, followed by a reboot that replays the intent journal)
// and silent at-rest corruption (byte flips in stored container payloads).
//
// Everything is driven by one seeded RNG, so a failing run is replayable
// by seed. The harness checks two invariants throughout:
//
//  1. No silent corruption: a restore either returns byte-identical data
//     or fails with an error. Wrong bytes are an immediate harness failure.
//  2. Loud failures need a cause: an operation may only fail while faults
//     are armed or injected corruption is outstanding. Unexplained errors
//     fail the run.
//
// After the op mix, a heal phase clears faults, reboots, scrubs and
// sweeps; every version that survived (scrub reports unrecoverable loss
// explicitly) must then restore byte-identical, and a second scrub must
// find nothing left to do.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
)

// Options configures a chaos run. The zero value of every field selects a
// sensible default; Seed 0 is a valid (and deterministic) seed.
type Options struct {
	Seed  int64
	Ops   int                              // mixed operations to run (default 200)
	Files int                              // distinct backup streams (default 3)
	Log   func(format string, args ...any) // optional progress logger
}

// Result counts what a run did and what the invariants caught.
type Result struct {
	Ops            int
	Backups        int
	BackupFailures int
	Restores       int
	RangeRestores  int
	Optimizes      int
	Deletes        int
	Scrubs         int
	Sweeps         int

	Crashes             int // operations killed by an exhausted put budget
	Reboots             int // repo reopens (journal replay runs each time)
	FaultedReads        int // restore attempts under a transient read-fault rate
	CorruptionsInjected int // at-rest byte flips

	LoudFailures      int // operations that failed with faults armed or rot outstanding
	RepairedChunks    int
	Quarantined       int
	DataLossDetected  int // versions scrub declared unrecoverable (loudly)
	SilentCorruptions int // restores returning wrong bytes — must stay 0

	LiveVersions int // versions alive and verified byte-identical after heal
}

type version struct {
	ver  int
	data []byte
}

type file struct {
	id       string
	versions []version
	pending  *lnode.BackupStats // last backup's stats, consumed by optimize
}

type harness struct {
	opts   Options
	rng    *rand.Rand
	cfg    core.Config
	mem    *oss.Frozen // the store of record; Check proves no one wrote through a read
	faulty *oss.Faulty
	repo   *core.Repo
	ln     *lnode.LNode
	gn     *gnode.GNode
	files  []*file
	dirty  bool // at-rest corruption injected since the last scrub
	res    *Result
}

// Run executes a seeded chaos schedule and returns its counters. A
// non-nil error means an invariant was violated (the Result is still
// returned for diagnosis); fault-induced loud failures are not errors.
func Run(opts Options) (*Result, error) {
	if opts.Ops <= 0 {
		opts.Ops = 200
	}
	if opts.Files <= 0 {
		opts.Files = 3
	}
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

	mem := oss.NewFrozen(oss.NewMem())
	h := &harness{
		opts:   opts,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		cfg:    cfg,
		mem:    mem,
		faulty: oss.NewFaulty(mem),
		res:    &Result{},
	}
	repo, err := core.OpenRepo(h.faulty, h.cfg)
	if err != nil {
		return h.res, err
	}
	h.attach(repo)
	for i := 0; i < opts.Files; i++ {
		h.files = append(h.files, &file{id: fmt.Sprintf("file-%d", i)})
	}

	for i := 0; i < opts.Ops; i++ {
		h.res.Ops++
		if err := h.step(); err != nil {
			return h.res, fmt.Errorf("chaos: seed %d op %d: %w", opts.Seed, i, err)
		}
	}
	if err := h.heal(); err != nil {
		return h.res, fmt.Errorf("chaos: seed %d heal: %w", opts.Seed, err)
	}
	if err := h.mem.Check(); err != nil {
		return h.res, fmt.Errorf("chaos: seed %d: %w", opts.Seed, err)
	}
	return h.res, nil
}

func (h *harness) attach(repo *core.Repo) {
	h.repo = repo
	h.ln = lnode.New(repo, "chaos-l0")
	h.gn = gnode.New(repo)
}

// reboot simulates a process crash: the in-memory repo state (buffered
// index writes, caches) is discarded and the store reopened, which replays
// the intent journal and the kvstore WAL.
func (h *harness) reboot() error {
	h.faulty.Clear()
	repo, err := core.OpenRepo(h.faulty, h.cfg)
	if err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	h.attach(repo)
	h.res.Reboots++
	return nil
}

func (h *harness) step() error {
	switch p := h.rng.Intn(100); {
	case p < 30:
		return h.opBackup()
	case p < 52:
		return h.opRestore(false)
	case p < 62:
		return h.opRestore(true)
	case p < 74:
		return h.opOptimize()
	case p < 82:
		return h.opDelete()
	case p < 89:
		return h.opCorrupt()
	case p < 94:
		return h.opScrub()
	default:
		return h.opSweep()
	}
}

// gen produces deterministic pseudo-random content from the harness RNG.
func (h *harness) gen(n int) []byte {
	b := make([]byte, n)
	h.rng.Read(b)
	return b
}

// nextData evolves a file's content: mostly point mutations of the latest
// version (exercising dedup and sparse containers), sometimes fresh data.
func (h *harness) nextData(f *file) []byte {
	if len(f.versions) == 0 || h.rng.Intn(4) == 0 {
		return h.gen(256<<10 + h.rng.Intn(512<<10))
	}
	prev := f.versions[len(f.versions)-1].data
	data := append([]byte{}, prev...)
	for i := 0; i < 4+h.rng.Intn(12); i++ {
		data[h.rng.Intn(len(data))] ^= byte(1 + h.rng.Intn(255))
	}
	if h.rng.Intn(3) == 0 { // grow the tail
		data = append(data, h.gen(16<<10+h.rng.Intn(64<<10))...)
	}
	return data
}

// allowedFailure reports whether an operation failing with err is
// explainable, and records it; unexplainable errors are returned.
func (h *harness) allowedFailure(op string, err error, crashed bool) error {
	if crashed && errors.Is(err, oss.ErrInjected) {
		h.res.Crashes++
		return nil
	}
	if h.dirty || crashed {
		h.res.LoudFailures++
		return nil
	}
	return fmt.Errorf("%s failed with no faults armed: %w", op, err)
}

// syncFile reconciles the model with the store after a crashed mutation:
// every model version still present must be byte-identical; the version
// named may have committed (kept if it restores) or not (dropped).
func (h *harness) syncFile(f *file) error {
	vs, err := h.repo.Recipes.Versions(f.id)
	if err != nil {
		return err
	}
	present := make(map[int]bool, len(vs))
	for _, v := range vs {
		present[v] = true
	}
	kept := f.versions[:0]
	for _, ver := range f.versions {
		if present[ver.ver] {
			kept = append(kept, ver)
			delete(present, ver.ver)
		}
	}
	f.versions = kept
	if len(present) != 0 {
		return fmt.Errorf("file %s has unknown versions %v after crash", f.id, vs)
	}
	return nil
}

func (h *harness) opBackup() error {
	f := h.files[h.rng.Intn(len(h.files))]
	data := h.nextData(f)
	next := 0
	if n := len(f.versions); n > 0 {
		next = f.versions[n-1].ver + 1
	}

	crashed := h.rng.Intn(4) == 0
	if crashed {
		h.faulty.FailPutsAfter(5 + h.rng.Intn(80))
	}
	st, err := h.ln.Backup(f.id, data)
	h.faulty.Clear()
	if err == nil {
		f.versions = append(f.versions, version{st.Version, data})
		f.pending = st
		h.res.Backups++
		h.opts.Log("backup %s v%d (crash=%v) new=%v sparse=%v", f.id, st.Version, crashed, st.NewContainers, st.SparseContainers)
		return nil
	}
	h.opts.Log("backup %s v%d FAILED (crash=%v): %v", f.id, next, crashed, err)

	h.res.BackupFailures++
	if aerr := h.allowedFailure("backup", err, crashed); aerr != nil {
		return aerr
	}
	if err := h.reboot(); err != nil {
		return err
	}
	// The interrupted version either committed whole or not at all.
	vs, err := h.repo.Recipes.Versions(f.id)
	if err != nil {
		return err
	}
	for _, v := range vs {
		if v == next {
			if !h.restoreMatches(f.id, next, data) {
				return fmt.Errorf("half-committed backup: %s v%d is registered but does not restore", f.id, next)
			}
			f.versions = append(f.versions, version{next, data})
			return nil
		}
	}
	return h.syncFile(f)
}

// pickVersion selects a random live version, or nil.
func (h *harness) pickVersion() (*file, *version) {
	var candidates []*file
	for _, f := range h.files {
		if len(f.versions) > 0 {
			candidates = append(candidates, f)
		}
	}
	if len(candidates) == 0 {
		return nil, nil
	}
	f := candidates[h.rng.Intn(len(candidates))]
	return f, &f.versions[h.rng.Intn(len(f.versions))]
}

// restoreMatches restores without fault arming and compares bytes.
func (h *harness) restoreMatches(fileID string, ver int, want []byte) bool {
	var buf bytes.Buffer
	if _, err := h.ln.Restore(fileID, ver, &buf); err != nil {
		return false
	}
	return bytes.Equal(buf.Bytes(), want)
}

func (h *harness) opRestore(ranged bool) error {
	f, v := h.pickVersion()
	if v == nil {
		return h.opBackup()
	}

	// Occasionally run the restore under a transient read-fault rate; it
	// may then fail loudly, but a success still has to be exact.
	faulted := h.rng.Intn(5) == 0
	if faulted {
		h.faulty.SetRand(rand.New(rand.NewSource(h.rng.Int63())))
		h.faulty.FailRate(0.05)
		h.res.FaultedReads++
	}
	defer h.faulty.Clear()

	var want []byte
	var buf bytes.Buffer
	var err error
	if ranged {
		off := int64(h.rng.Intn(len(v.data)))
		length := int64(1 + h.rng.Intn(len(v.data)))
		end := off + length
		if end > int64(len(v.data)) {
			end = int64(len(v.data))
		}
		want = v.data[off:end]
		_, err = h.ln.RestoreRange(f.id, v.ver, off, length, &buf)
		h.res.RangeRestores++
	} else {
		want = v.data
		_, err = h.ln.Restore(f.id, v.ver, &buf)
		h.res.Restores++
	}
	if err != nil {
		return h.allowedFailure("restore", err, faulted)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		h.res.SilentCorruptions++
		return fmt.Errorf("SILENT CORRUPTION: restore %s v%d returned wrong bytes", f.id, v.ver)
	}
	return nil
}

func (h *harness) opOptimize() error {
	var f *file
	for _, c := range h.files {
		if c.pending != nil {
			f = c
			break
		}
	}
	if f == nil {
		return h.opBackup()
	}
	st := f.pending
	f.pending = nil // consumed either way; stats go stale after reorganisation

	crashed := h.rng.Intn(3) == 0
	if crashed {
		h.faulty.FailPutsAfter(h.rng.Intn(40))
	}
	_, _, err := h.gn.Optimize(st.FileID, st.Version, st.NewContainers, st.SparseContainers)
	h.faulty.Clear()
	if err == nil {
		h.res.Optimizes++
		h.opts.Log("optimize %s v%d (crash=%v) new=%v sparse=%v", st.FileID, st.Version, crashed, st.NewContainers, st.SparseContainers)
		return nil
	}
	h.opts.Log("optimize %s v%d FAILED (crash=%v): %v", st.FileID, st.Version, crashed, err)
	if aerr := h.allowedFailure("optimize", err, crashed); aerr != nil {
		return aerr
	}
	// Reorganisation never loses versions: reboot replays the journal and
	// all model state must survive intact (verified by later restores).
	return h.reboot()
}

func (h *harness) opDelete() error {
	var candidates []*file
	for _, f := range h.files {
		if len(f.versions) >= 2 {
			candidates = append(candidates, f)
		}
	}
	if len(candidates) == 0 {
		return h.opBackup()
	}
	f := candidates[h.rng.Intn(len(candidates))]
	i := h.rng.Intn(len(f.versions) - 1) // keep the newest version
	target := f.versions[i].ver

	crashed := h.rng.Intn(3) == 0
	if crashed {
		h.faulty.FailPutsAfter(h.rng.Intn(30))
	}
	_, err := h.gn.DeleteVersion(f.id, target)
	h.faulty.Clear()
	h.opts.Log("delete %s v%d (crash=%v) err=%v", f.id, target, crashed, err)
	if err == nil {
		f.versions = append(f.versions[:i], f.versions[i+1:]...)
		h.res.Deletes++
		return nil
	}
	if aerr := h.allowedFailure("delete", err, crashed); aerr != nil {
		return aerr
	}
	if err := h.reboot(); err != nil {
		return err
	}
	// Replay settles the deletion one way or the other.
	return h.syncFile(f)
}

// opCorrupt flips one byte of a stored container payload — silent rot the
// read path must catch and scrub must heal or quarantine.
func (h *harness) opCorrupt() error {
	keys, err := h.mem.List(container.Prefix)
	if err != nil {
		return err
	}
	var data []string
	for _, k := range keys {
		if strings.HasSuffix(k, ".data") {
			data = append(data, k)
		}
	}
	if len(data) == 0 {
		return h.opBackup()
	}
	key := data[h.rng.Intn(len(data))]
	raw, err := h.mem.Get(key)
	if err != nil {
		return err
	}
	raw = bytes.Clone(raw) // a read is read-only: rot is a Put of damaged bytes
	raw[h.rng.Intn(len(raw))] ^= byte(1 + h.rng.Intn(255))
	if err := h.mem.Put(key, raw); err != nil {
		return err
	}
	h.dirty = true
	h.res.CorruptionsInjected++
	h.opts.Log("corrupted %s", key)
	return nil
}

func (h *harness) opScrub() error {
	sc, err := h.gn.Scrub()
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	h.res.Scrubs++
	h.res.RepairedChunks += sc.RepairedChunks
	h.res.Quarantined += len(sc.Quarantined)
	h.opts.Log("scrub: %+v", sc)
	h.dirty = false // every outstanding flip is now repaired or quarantined
	if len(sc.Lost) == 0 && len(sc.Quarantined) == 0 {
		return nil
	}
	return h.dropLostVersions()
}

// dropLostVersions re-checks every model version after a scrub reported
// damage: versions restore byte-identical (kept) or fail loudly (counted
// as detected data loss and dropped). Wrong bytes remain fatal.
func (h *harness) dropLostVersions() error {
	for _, f := range h.files {
		kept := f.versions[:0]
		for _, v := range f.versions {
			var buf bytes.Buffer
			_, err := h.ln.Restore(f.id, v.ver, &buf)
			switch {
			case err != nil:
				h.opts.Log("data loss: %s v%d: %v", f.id, v.ver, err)
				h.res.DataLossDetected++
				// Retire the unrecoverable version from the store too, as an
				// operator would after a scrub report. Leaving it registered
				// would desynchronise version numbering: the model forgets
				// v, but the store would keep assigning numbers above it.
				if _, derr := h.gn.DeleteVersion(f.id, v.ver); derr != nil {
					return fmt.Errorf("retiring lost version %s v%d: %w", f.id, v.ver, derr)
				}
			case !bytes.Equal(buf.Bytes(), v.data):
				h.res.SilentCorruptions++
				return fmt.Errorf("SILENT CORRUPTION: post-scrub restore %s v%d returned wrong bytes", f.id, v.ver)
			default:
				kept = append(kept, v)
			}
		}
		f.versions = kept
	}
	return nil
}

func (h *harness) opSweep() error {
	as, err := h.gn.FullSweep()
	if err != nil {
		return h.allowedFailure("sweep", err, false)
	}
	h.opts.Log("sweep: %+v", as)
	h.res.Sweeps++
	return nil
}

// heal ends the run: clear faults, reboot, scrub, sweep — then every
// surviving version must restore byte-identical and a second scrub must
// find a fully healthy repo.
func (h *harness) heal() error {
	if err := h.reboot(); err != nil {
		return err
	}
	sc, err := h.gn.Scrub()
	if err != nil {
		return fmt.Errorf("heal scrub: %w", err)
	}
	h.res.Scrubs++
	h.res.RepairedChunks += sc.RepairedChunks
	h.res.Quarantined += len(sc.Quarantined)
	h.dirty = false
	if err := h.dropLostVersions(); err != nil {
		return err
	}
	if _, err := h.gn.FullSweep(); err != nil {
		return fmt.Errorf("heal sweep: %w", err)
	}
	for _, f := range h.files {
		for _, v := range f.versions {
			var buf bytes.Buffer
			if _, err := h.ln.Restore(f.id, v.ver, &buf); err != nil {
				return fmt.Errorf("healed restore %s v%d failed: %w", f.id, v.ver, err)
			}
			if !bytes.Equal(buf.Bytes(), v.data) {
				h.res.SilentCorruptions++
				return fmt.Errorf("SILENT CORRUPTION: healed restore %s v%d returned wrong bytes", f.id, v.ver)
			}
			if _, err := h.ln.RestoreRange(f.id, v.ver, int64(len(v.data)/3), int64(len(v.data)/3), io.Discard); err != nil {
				return fmt.Errorf("healed range restore %s v%d failed: %w", f.id, v.ver, err)
			}
			h.res.LiveVersions++
		}
	}
	sc2, err := h.gn.Scrub()
	if err != nil {
		return fmt.Errorf("post-heal scrub: %w", err)
	}
	h.res.Scrubs++
	if !sc2.Clean() || sc2.CorruptChunks != 0 || sc2.FooterRepairs != 0 || sc2.RebuiltContainers != 0 {
		return fmt.Errorf("repo not healthy after heal: %+v", sc2)
	}
	return nil
}
