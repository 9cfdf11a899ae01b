package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/globalindex"
	"slimstore/internal/gnode"
	"slimstore/internal/lnode"
	"slimstore/internal/oss"
	"slimstore/internal/simclock"

	"slimstore/benchmark/meter"
)

// Operation kinds, as they key rep.lat and rep.thr and name spans.
const (
	kBackupFirst   = "backup_first"
	kBackupIncr    = "backup_incr"
	kRestoreLatest = "restore_latest"
	kRestoreOldest = "restore_oldest"
	kOptimize      = "optimize"
	kReverseDedup  = "reverse_dedup"
	kSCC           = "scc"
	kDelete        = "delete"
	kVerify        = "verify"
	kRangeRestore  = "range_restore"
	kScrub         = "scrub"
	kAudit         = "audit"
)

// thr accumulates bytes and the summed wall of the operations that moved
// them; mbps is the per-stream throughput (1 MB = 2^20 bytes, as simclock).
type thr struct {
	bytes int64
	wall  time.Duration
}

func (t thr) mbps() float64 { return mbps(t.bytes, t.wall) }

// rep is everything one repetition of a workload measured. Operations
// record into it from the client goroutines; everything else is filled
// by the driver between phases.
type rep struct {
	span              meter.SpanID
	dataset           int // index in the workload's dataset cycle
	mu                sync.Mutex
	attempted, failed int
	done              int                  // operations completed and checked
	lat               map[string][]float64 // ms per operation, by kind
	thr               map[string]thr       // by kind

	wall, cpu time.Duration // timed regions (the phases) only
	refs      []float64     // ns per meter.Reference pass, taken before each phase

	backedUp, restored int64 // logical bytes through backup / restore+verify
	retained, stored   int64 // logical bytes still retained; OSS bytes held
	recipeBytes        int64

	oss    meter.Counters // the whole rep
	ingest meter.Counters // backup + optimize + delete phases: repeat exactly
	// The version-0 backup phase and the restore phases, for the
	// unaccounted-share estimates: phase wall and OSS-covered time in it.
	firstWall, firstCovered     time.Duration
	restoreWall, restoreCovered time.Duration

	backup      backupSums
	restore     restoreSums
	reverse     gnode.ReverseDedupStats
	sccMoved    int64
	gcReclaimed int64
	scrubbed    int64 // bytes the scrub passes read
	index       globalindex.Stats
	shared      cache.SharedStats

	alloc      uint64 // heap bytes allocated during the rep
	gcCycles   uint32
	containers int
	liveBytes  int64
	dataBytes  int64
	openCold   []float64 // ms per cold handle opened over the populated store
}

type backupSums struct {
	jobs                             int
	logical, duplicate               int64
	chunks, skipHits, skipMisses     int
	superHits, superMisses, newSuper int
	segments                         int
	requests                         int64
	virtual                          time.Duration
}

type restoreSums struct {
	jobs     int
	bytes    int64
	cache    cache.Stats
	prefetch cache.PrefetchStats
	requests int64
	virtual  time.Duration
}

// referenceNominal is what one meter.Reference pass takes on the sizing
// host in a quiet hour.
const referenceNominal = 1300 * time.Microsecond

// slowdown turns reference passes (ns each) into how much slower than
// nominal the host was running when they were taken: their median over
// referenceNominal, 1 when there are none.
func slowdown(refs []float64) float64 {
	if len(refs) == 0 {
		return 1
	}
	return meter.Median(refs) / float64(referenceNominal)
}

func newRep() *rep {
	return &rep{lat: make(map[string][]float64), thr: make(map[string]thr)}
}

// record books one finished operation. err covers both a failed call and
// a failed output check.
func (r *rep) record(kind string, bytes int64, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", kind, err)
		return
	}
	r.done++
	r.lat[kind] = append(r.lat[kind], float64(d)/float64(time.Millisecond))
	r.add(kind, bytes, d)
}

// add accumulates throughput without counting an operation (the two
// halves of an optimize pass).
func (r *rep) add(kind string, bytes int64, d time.Duration) {
	t := r.thr[kind]
	t.bytes += bytes
	t.wall += d
	r.thr[kind] = t
}

// ok books a step that is not itself a timed operation — opening or
// closing a handle, reading the inventory — as one check, failed when err
// is not nil, and reports whether it passed.
func (r *rep) ok(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", what, err)
	}
	return err == nil
}

func requests(a *simclock.Account) int64 {
	io := a.IO()
	return io.Reads + io.Writes
}

func (r *rep) noteBackup(st *lnode.BackupStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := &r.backup
	b.jobs++
	b.logical += st.LogicalBytes
	b.duplicate += st.DuplicateBytes
	b.chunks += st.NumChunks
	b.skipHits += st.SkipHits
	b.skipMisses += st.SkipMisses
	b.superHits += st.SuperHits
	b.superMisses += st.SuperMisses
	b.newSuper += st.NewSuperchunks
	b.segments += st.SegmentsFetched
	b.requests += requests(st.Account)
	b.virtual += st.Elapsed
	r.backedUp += st.LogicalBytes
}

func (r *rep) noteRestore(st *lnode.RestoreStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.restore
	s.jobs++
	s.bytes += st.Bytes
	c, o := &s.cache, st.Cache
	c.Requests += o.Requests
	c.LogicalBytes += o.LogicalBytes
	c.ContainersRead += o.ContainersRead
	c.Rereads += o.Rereads
	c.OSSBytes += o.OSSBytes
	c.MemHits += o.MemHits
	c.ResolveMetaReads += o.ResolveMetaReads
	c.SharedHits += o.SharedHits
	c.SharedJoins += o.SharedJoins
	c.RangedReads += o.RangedReads
	c.RangedBytes += o.RangedBytes
	s.prefetch.Dispatched += st.Prefetch.Dispatched
	s.prefetch.Consumed += st.Prefetch.Consumed
	s.prefetch.Direct += st.Prefetch.Direct
	s.prefetch.Cancelled += st.Prefetch.Cancelled
	s.requests += requests(st.Account)
	s.virtual += st.Elapsed
	r.restored += st.Bytes
}

func (r *rep) noteVerify(st *lnode.RestoreStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.restored += st.Bytes
}

func (r *rep) noteOptimize(rd *gnode.ReverseDedupStats, scc *gnode.SCCStats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rd != nil {
		r.reverse.ChunksScanned += rd.ChunksScanned
		r.reverse.BloomSkips += rd.BloomSkips
		r.reverse.DuplicatesRemoved += rd.DuplicatesRemoved
		r.reverse.ContainersRewritten += rd.ContainersRewritten
		r.reverse.BytesReclaimed += rd.BytesReclaimed
	}
	if scc != nil {
		r.sccMoved += scc.BytesMoved
	}
}

// runner drives one workload for one invocation.
type runner struct {
	spec spec
	seed int64
	data *dataset      // the dataset of the rep in progress
	tr   *meter.Tracer // nil in untraced runs
	root meter.SpanID
	// setups holds one sample per set-up performed.
	setups []setup
}

// setup is one set-up: how long it took, and how slow the host was running
// (slowdown of the reference passes taken right after it).
type setup struct{ seconds, slow float64 }

// setupReferences is how many reference passes follow a set-up (~20 ms).
const setupReferences = 15

// setUp is what precedes the first timed operation of a rep: generate
// dataset idx of the workload's cycle and open the system on an empty
// store. The first call also carries process start-up.
func (x *runner) setUp(idx int) error {
	x.data = nil
	runtime.GC() // the previous dataset's memory is reused, not added to
	t0 := time.Now()
	if len(x.setups) == 0 {
		t0 = processStart
	}
	x.data = generate(x.spec, x.seed, idx)
	sys, err := openSystem(x.newStore(false), x.spec.config())
	if err == nil {
		err = sys.close()
	}
	took := time.Since(t0).Seconds()
	refs := make([]float64, setupReferences)
	for i := range refs {
		refs[i] = float64(meter.Reference())
	}
	x.setups = append(x.setups, setup{took, slowdown(refs)})
	return err
}

// phase runs fn as one timed region of r under a phase span. The forced
// collection before it keeps one phase's garbage out of the next one's
// wall, and the host reference passes are taken there too — one in the
// serial workloads, whose reps have dozens of phases, five in the engine
// workload, whose one rep has six; OSS requests issued inside parent to the
// phase unless an operation claims them.
func (x *runner) phase(r *rep, repSpan meter.SpanID, name string, fn func(ph meter.SpanID)) {
	runtime.GC()
	passes := 1
	if x.spec.engine {
		passes = 5
	}
	for i := 0; i < passes; i++ {
		r.refs = append(r.refs, float64(meter.Reference()))
	}
	ph := x.tr.Begin(repSpan, "harness", name)
	x.tr.SetCurrent(ph)
	c0, t0 := meter.CPUTime(), time.Now()
	fn(ph)
	r.wall += time.Since(t0)
	r.cpu += meter.CPUTime() - c0
	x.tr.SetCurrent(repSpan)
	x.tr.End(ph)
}

// op times one serial operation under an operation span that claims the
// OSS requests issued while it runs.
func (x *runner) op(r *rep, ph meter.SpanID, layer, kind string, bytes int64, fn func() error) {
	id := x.tr.BeginOp(ph, layer, kind)
	x.tr.SetCurrent(id)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	x.tr.SetCurrent(ph)
	x.tr.End(id)
	r.record(kind, bytes, d, err)
}

// sub times one named part of an operation in flight (a child span of it).
func (x *runner) sub(r *rep, layer, kind string, bytes int64, fn func() error) error {
	parent := x.tr.Current()
	id := x.tr.Begin(parent, layer, kind)
	x.tr.SetCurrent(id)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	x.tr.SetCurrent(parent)
	x.tr.End(id)
	if err == nil {
		r.mu.Lock()
		r.add(kind, bytes, d)
		r.mu.Unlock()
	}
	return err
}

// newStore is a fresh in-memory store behind the measuring wrapper.
func (x *runner) newStore(sleep bool) *meter.Store {
	st := meter.NewStore(oss.NewMem(), simclock.DefaultCosts(), x.tr)
	st.SetSleep(sleep)
	return st
}

// restoreChecked restores into a comparing writer: a wrong, short or long
// output fails the operation like an error does.
func restoreChecked(l *lnode.LNode, id string, v int, want []byte) (*lnode.RestoreStats, error) {
	w := meter.NewCompareWriter(want)
	st, err := l.Restore(id, v, w)
	if err == nil {
		err = w.Finish()
	}
	return st, err
}

func backupKind(v int) string {
	if v == 0 {
		return kBackupFirst
	}
	return kBackupIncr
}

// run executes repetition n: set-up of the n-th dataset of the cycle, then
// the workload's phases on a fresh store. It returns what the rep measured
// plus the populated store (for the replays).
func (x *runner) run(n int, sleep bool) (*rep, *meter.Store) {
	r := newRep()
	r.dataset = n % x.spec.datasets
	r.ok("set-up", x.setUp(r.dataset))
	repSpan := x.tr.Begin(x.root, "harness", fmt.Sprintf("rep %d", n))
	r.span = repSpan
	store := x.newStore(sleep && x.spec.cloud)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if x.spec.engine {
		x.engineRep(r, repSpan, store)
	} else {
		x.serialRep(r, repSpan, store)
	}
	runtime.ReadMemStats(&m1)
	r.alloc, r.gcCycles = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	r.oss = store.Counters()
	x.tr.End(repSpan)
	store.SetSleep(false)
	x.inventory(r, store)
	return r, store
}

// inventory reads what the rep left on the store — space by namespace,
// container utilization — after the request counters were snapshotted.
func (x *runner) inventory(r *rep, store *meter.Store) {
	d := x.data
	last := x.spec.versions - 1
	r.retained = d.bytesOf(x.spec.oldestRetained(), last)
	keys, err := store.List("")
	r.ok("list store", err)
	for _, k := range keys {
		n, err := store.Head(k)
		if err != nil {
			r.ok("head "+k, err)
			continue
		}
		r.stored += n
		if strings.HasPrefix(k, "recipes/") {
			r.recipeBytes += n
		}
	}
	sys, err := openSystem(store, x.spec.config())
	if !r.ok("reopen for inventory", err) {
		return
	}
	ids, err := sys.repo.Containers.List()
	r.ok("list containers", err)
	r.containers = len(ids)
	for _, id := range ids {
		m, err := sys.repo.Containers.ReadMeta(id)
		if err != nil {
			r.ok("container meta "+id.String(), err)
			continue
		}
		r.liveBytes += m.LiveBytes()
		r.dataBytes += int64(m.DataSize)
	}
	r.ok("close inventory handle", sys.close())
}

// serialRep is the phase list of the one-client workloads: per version
// back up every file, optimize, apply retention, scrub on schedule; then
// audit, cold-restore latest and oldest retained, verify and range-restore
// the latest, and scrub.
func (x *runner) serialRep(r *rep, repSpan meter.SpanID, store *meter.Store) {
	s, d := x.spec, x.data
	sys, err := openSystem(store, s.config())
	if !r.ok("open ingest handle", err) {
		return
	}
	scrub := func(ph meter.SpanID) {
		c0 := store.Counters()
		x.op(r, ph, "gnode", kScrub, 0, func() error {
			st, err := sys.g.Scrub()
			if err == nil && !st.Clean() {
				err = fmt.Errorf("scrub not clean: %d quarantined, %d lost", len(st.Quarantined), len(st.Lost))
			}
			return err
		})
		read := store.Counters().Sub(c0)
		r.scrubbed += read.Bytes[meter.OpGet] + read.Bytes[meter.OpGetRange]
	}
	for v := 0; v < s.versions; v++ {
		stats := make([]*lnode.BackupStats, len(d.ids))
		c0 := store.Counters()
		x.phase(r, repSpan, fmt.Sprintf("backup v%d", v), func(ph meter.SpanID) {
			t0 := time.Now()
			for f, id := range d.ids {
				data := d.versions[f][v]
				x.op(r, ph, "lnode", backupKind(v), int64(len(data)), func() error {
					st, err := sys.l.Backup(id, data)
					if err == nil {
						stats[f] = st
						r.noteBackup(st)
					}
					return err
				})
			}
			if v == 0 {
				r.firstWall = time.Since(t0)
				r.firstCovered = store.Counters().Covered - c0.Covered
			}
		})
		x.phase(r, repSpan, fmt.Sprintf("optimize v%d", v), func(ph meter.SpanID) {
			for f := range d.ids {
				st := stats[f]
				if st == nil {
					continue
				}
				x.op(r, ph, "gnode", kOptimize, st.LogicalBytes, func() error {
					var rd *gnode.ReverseDedupStats
					var scc *gnode.SCCStats
					err := x.sub(r, "gnode", kReverseDedup, st.LogicalBytes, func() (err error) {
						rd, err = sys.g.ReverseDedup(st.NewContainers)
						return err
					})
					if err == nil {
						err = x.sub(r, "gnode", kSCC, st.LogicalBytes, func() (err error) {
							scc, err = sys.g.CompactSparse(st.FileID, st.Version, st.SparseContainers)
							return err
						})
					}
					r.noteOptimize(rd, scc)
					return err
				})
			}
		})
		if old := v - s.keepLast; s.keepLast > 0 && old >= 0 {
			x.phase(r, repSpan, fmt.Sprintf("delete v%d", old), func(ph meter.SpanID) {
				for _, id := range d.ids {
					x.op(r, ph, "gnode", kDelete, 0, func() error {
						gc, err := sys.g.DeleteVersion(id, old)
						if err == nil {
							r.gcReclaimed += gc.BytesReclaimed
						}
						return err
					})
				}
			})
		}
		r.ingest = r.ingest.Add(store.Counters().Sub(c0))
		if s.scrubEvery > 0 && (v+1)%s.scrubEvery == 0 {
			x.phase(r, repSpan, fmt.Sprintf("scrub v%d", v), scrub)
		}
	}
	if s.audit {
		// A wrongly reclaimed live container shows as a failed restore below.
		x.phase(r, repSpan, "audit", func(ph meter.SpanID) {
			x.op(r, ph, "gnode", kAudit, 0, func() error {
				_, err := sys.g.FullSweep()
				return err
			})
		})
	}
	r.index = sys.repo.Global.Stats()
	r.ok("close ingest handle", sys.close())

	last, oldest := s.versions-1, s.oldestRetained()
	// cold opens a fresh handle over the populated store for one pass, so
	// the shared restore cache starts empty.
	cold := func(name string, fn func(ph meter.SpanID, sys *system)) {
		c0 := store.Counters()
		x.phase(r, repSpan, name, func(ph meter.SpanID) {
			t0 := time.Now()
			sys, err := openSystem(store, s.config())
			if !r.ok("open cold handle", err) {
				return
			}
			r.openCold = append(r.openCold, float64(time.Since(t0))/float64(time.Millisecond))
			fn(ph, sys)
			r.shared = addShared(r.shared, sys.repo.RestoreIO.Stats())
			r.ok("close cold handle", sys.close())
			r.restoreWall += time.Since(t0)
		})
		r.restoreCovered += store.Counters().Covered - c0.Covered
	}
	restoreAll := func(kind string, v int) func(meter.SpanID, *system) {
		return func(ph meter.SpanID, sys *system) {
			for f, id := range d.ids {
				want := d.versions[f][v]
				x.op(r, ph, "lnode", kind, int64(len(want)), func() error {
					st, err := restoreChecked(sys.l, id, v, want)
					if err == nil {
						r.noteRestore(st)
					}
					return err
				})
			}
		}
	}
	// On the free store a restore pass is a few tens of milliseconds of
	// memory traffic, and single passes land in fast or slow stretches of
	// the host; three passes per rep (each cold) average that out. On the
	// sleeping store a pass is hundreds of milliseconds of mostly sleep.
	passes := 3
	if s.cloud {
		passes = 1
	}
	for i := 0; i < passes; i++ {
		cold("restore latest", restoreAll(kRestoreLatest, last))
		cold("restore oldest", restoreAll(kRestoreOldest, oldest))
	}

	if sys, err = openSystem(store, s.config()); !r.ok("open final handle", err) {
		return
	}
	x.phase(r, repSpan, "verify latest", func(ph meter.SpanID) {
		for f, id := range d.ids {
			want := d.versions[f][last]
			x.op(r, ph, "lnode", kVerify, int64(len(want)), func() error {
				st, err := sys.l.Verify(id, last)
				if err == nil {
					r.noteVerify(st)
				}
				return err
			})
			// Partial recovery: 1 MiB (or the whole file if smaller) at mid-file.
			n := min(1<<20, len(want))
			off := (len(want) - n) / 2
			x.op(r, ph, "lnode", kRangeRestore, 0, func() error {
				w := meter.NewCompareWriter(want[off : off+n])
				_, err := sys.l.RestoreRange(id, last, int64(off), int64(n), w)
				if err == nil {
					err = w.Finish()
				}
				return err
			})
		}
	})
	if s.scrubEvery == 0 {
		x.phase(r, repSpan, "scrub", scrub)
	}
	r.ok("close final handle", sys.close())
}

func addShared(a, b cache.SharedStats) cache.SharedStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.InflightJoins += b.InflightJoins
	a.Evictions += b.Evictions
	return a
}
