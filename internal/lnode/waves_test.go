package lnode

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/gnode"
	"slimstore/internal/oss"
)

// These tests pin what the L-node overlaps (DESIGN.md §13, §14): which
// round trips are in flight together, and that overlapping them changes
// neither a result nor a counter. None of them reads a clock to decide:
// probeStore holds requests back until the wave a test expects is in
// flight at once, so code that issued them one at a time would never get
// past the first — the timeout only turns that hang into a failure.

// probeStore logs every request under it, in order, as "op key" at its
// start and "/op key" at its end (ranged reads as "getrange key@off"), can
// fail chosen requests, and can hold matching requests until a given number
// of them are waiting together.
type probeStore struct {
	oss.Store
	t *testing.T

	mu       sync.Mutex
	events   []string
	inflight int
	fail     func(req string) error // nil = fail nothing
	watch    func(req string) bool  // nil = none; else peak is the most such requests in flight at once
	watched  int
	peak     int
	hold     func(req string) bool // which requests the waves below are made of
	waves    []int                 // sizes of the successive waves still to be seen
	waiting  int
	release  chan struct{}
	timedOut bool
}

func newProbe(t *testing.T, inner oss.Store) *probeStore {
	return &probeStore{Store: inner, t: t, release: make(chan struct{})}
}

// expectWaves arms the gate: the next requests matching hold are released
// only once sizes[0] of them wait together, then sizes[1], and so on; after
// the last wave nothing is held.
func (p *probeStore) expectWaves(hold func(req string) bool, sizes ...int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hold, p.waves, p.waiting = hold, sizes, 0
}

// pendingWaves is how many armed waves never filled.
func (p *probeStore) pendingWaves() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.waves)
}

func (p *probeStore) reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = nil
}

// started returns the logged request starts matching pred, in order.
func (p *probeStore) started(pred func(req string) bool) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, e := range p.events {
		if !strings.HasPrefix(e, "/") && pred(e) {
			out = append(out, e)
		}
	}
	return out
}

func (p *probeStore) log() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.events...)
}

func (p *probeStore) inFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inflight
}

func (p *probeStore) enter(req string) error {
	p.mu.Lock()
	p.events = append(p.events, req)
	p.inflight++
	if p.watch != nil && p.watch(req) {
		p.watched++
		p.peak = max(p.peak, p.watched)
	}
	var err error
	if p.fail != nil {
		err = p.fail(req)
	}
	var wait chan struct{}
	if err == nil && len(p.waves) > 0 && p.hold(req) {
		p.waiting++
		if p.waiting == p.waves[0] {
			close(p.release)
			p.release = make(chan struct{})
			p.waves, p.waiting = p.waves[1:], 0
		} else {
			wait = p.release
		}
	}
	p.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-time.After(10 * time.Second):
			p.mu.Lock()
			first := !p.timedOut
			p.timedOut = true
			p.mu.Unlock()
			if first {
				p.t.Errorf("%s waited alone: the requests of its wave were not issued together", req)
			}
		}
	}
	return err
}

func (p *probeStore) leave(req string) {
	p.mu.Lock()
	p.events = append(p.events, "/"+req)
	p.inflight--
	if p.watch != nil && p.watch(req) {
		p.watched--
	}
	p.mu.Unlock()
}

func (p *probeStore) Put(key string, data []byte) error {
	req := "put " + key
	defer p.leave(req)
	if err := p.enter(req); err != nil {
		return err
	}
	return p.Store.Put(key, data)
}

func (p *probeStore) Get(key string) ([]byte, error) {
	req := "get " + key
	defer p.leave(req)
	if err := p.enter(req); err != nil {
		return nil, err
	}
	return p.Store.Get(key)
}

func (p *probeStore) GetRange(key string, off, n int64) ([]byte, error) {
	req := fmt.Sprintf("getrange %s@%d", key, off)
	defer p.leave(req)
	if err := p.enter(req); err != nil {
		return nil, err
	}
	return p.Store.GetRange(key, off, n)
}

func isMetaGet(req string) bool {
	return strings.HasPrefix(req, "get containers/") && strings.HasSuffix(req, ".meta")
}

// isSegmentRead matches the ranged read of one segment recipe (not the
// prefix read at offset 0 that opens the reader).
func isSegmentRead(req string) bool {
	return strings.HasPrefix(req, "getrange recipes/") && strings.Contains(req, ".recipe@") && !strings.HasSuffix(req, "@0")
}

// optimizedChain backs up versions of one file over store, running the
// G-node's optimize pass (reverse dedup, then sparse-container compaction)
// after each, and returns the version payloads. The oldest versions end up
// with chunks marked deleted in their home containers, home containers
// compacted away, and redirects into containers they never referenced.
func optimizedChain(t *testing.T, store oss.Store, cfg core.Config, seed int64, size, versions int) [][]byte {
	t.Helper()
	repo, err := core.OpenRepo(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	gn := gnode.New(repo)
	data := genData(seed, size)
	var kept [][]byte
	for v := 0; v < versions; v++ {
		kept = append(kept, data)
		st, err := n.Backup("f", data)
		if err != nil {
			t.Fatalf("backup v%d: %v", v, err)
		}
		if _, err := gn.ReverseDedup(st.NewContainers); err != nil {
			t.Fatalf("reverse dedup after v%d: %v", v, err)
		}
		if _, err := gn.CompactSparse("f", st.Version, st.SparseContainers); err != nil {
			t.Fatalf("compact after v%d: %v", v, err)
		}
		data = mutate(data, seed+int64(v)+1, 40)
	}
	return kept
}

// TestResolveWaves: a cold resolve of an old, redirected version costs two
// waves of metadata reads — the home containers together, then the
// redirect targets together — and one batched index probe per pass,
// whatever the number of records; the revalidation pass under the pins
// reads no metadata at all (the store's cache is warm by then).
func TestResolveWaves(t *testing.T) {
	cfg := testConfig()
	cfg.PrefetchThreads = 64 // wider than any wave here: a wave is one round trip
	cfg.SparseUtilization = 0.9
	mem := oss.NewMem()
	kept := optimizedChain(t, mem, cfg, 81, 3<<20, 5)

	// What the waves must be, from the serial reference on a scratch handle.
	ref, err := core.OpenRepo(mem, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ref.Recipes.GetRecipe("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := allRecords(r)
	seq, redirects, err := resolveReference(ref, r, recs)
	if err != nil {
		t.Fatal(err)
	}
	homes := map[container.ID]bool{}
	for _, rec := range recs {
		homes[rec.Container] = true
	}
	targets := map[container.ID]bool{}
	for _, rq := range seq {
		if !homes[rq.Container] {
			targets[rq.Container] = true
		}
	}
	if redirects == 0 || len(targets) == 0 {
		t.Fatalf("fixture has no redirects into new containers (redirects %d, targets %d)", redirects, len(targets))
	}

	probe := newProbe(t, mem)
	repo, err := core.OpenRepo(probe, cfg) // cold caches
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	probe.reset()
	probe.expectWaves(isMetaGet, len(homes), len(targets))
	opsBefore := repo.Global.Ops()
	var buf bytes.Buffer
	st, err := n.Restore("f", 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), kept[0]) {
		t.Fatal("restored bytes differ")
	}
	if left := probe.pendingWaves(); left != 0 {
		t.Fatalf("%d of the 2 expected metadata waves never formed", left)
	}
	if got, want := len(probe.started(isMetaGet)), len(homes)+len(targets); got != want {
		t.Errorf("%d metadata reads, want %d (each container once, in the first pass only)", got, want)
	}
	if got := repo.Global.Ops() - opsBefore; got != 2 {
		t.Errorf("%d global-index operations for %d redirects, want 2 (one batched probe per pass)", got, redirects)
	}
	if st.Redirects != redirects {
		t.Errorf("Redirects = %d, want %d", st.Redirects, redirects)
	}
	// No data byte is requested before resolution finished.
	sawData := false
	for _, e := range probe.log() {
		if strings.HasSuffix(e, ".data") || strings.Contains(e, ".data@") {
			sawData = true
		}
		if sawData && isMetaGet(e) {
			t.Fatalf("metadata read %q after the first data read", e)
		}
	}
}

// TestResolveSequenceMemoized: a resolution pass reads each distinct
// container's metadata once however many records reference it, and pays
// for every other lookup from its memo; pinSequence resolves twice
// (resolve, then revalidate under pins) and the second pass reaches the
// store for none of them.
func TestResolveSequenceMemoized(t *testing.T) {
	cfg := testConfig()
	mem := oss.NewMem()
	data := optimizedChain(t, mem, cfg, 3, 1<<20, 1)[0]

	probe := newProbe(t, mem)
	repo, err := core.OpenRepo(probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	r, err := repo.Recipes.GetRecipe("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[container.ID]bool{}
	for _, rec := range allRecords(r) {
		distinct[rec.Container] = true
	}

	probe.reset()
	var buf bytes.Buffer
	st, err := n.Restore("f", 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("restore mismatch")
	}
	c := st.Cache
	if got := len(probe.started(isMetaGet)); got != len(distinct) {
		t.Errorf("%d metadata requests over two passes, want %d (one per distinct container)", got, len(distinct))
	}
	if c.ResolveMetaReads != 2*len(distinct) {
		t.Errorf("ResolveMetaReads = %d, want %d (each pass consults each container once)", c.ResolveMetaReads, 2*len(distinct))
	}
	if got, want := c.ResolveMetaReads+c.ResolveMetaMemoHits, 2*c.Requests; got != want {
		t.Errorf("lookups %d over two passes, want %d (2×%d records)", got, want, c.Requests)
	}
	// A 1 MiB file spans few containers but ~256 chunks: the memo must
	// absorb the overwhelming majority of the lookups.
	if c.ResolveMetaReads >= c.ResolveMetaMemoHits {
		t.Errorf("memo ineffective: %d reads vs %d hits", c.ResolveMetaReads, c.ResolveMetaMemoHits)
	}
}

// TestRestoreRangeResolvesWindowOnly: a cold 1 MiB range of a 16 MiB
// version reads the metadata of the containers its own chunks live in and
// no others.
func TestRestoreRangeResolvesWindowOnly(t *testing.T) {
	cfg := testConfig()
	mem := oss.NewMem()
	data := optimizedChain(t, mem, cfg, 82, 16<<20, 1)[0]

	probe := newProbe(t, mem)
	repo, err := core.OpenRepo(probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	r, err := repo.Recipes.GetRecipe("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	const off, length = 5<<20 + 123, 1 << 20
	window, all := map[string]bool{}, map[string]bool{}
	var pos int64
	for _, rec := range allRecords(r) {
		req := "get " + container.MetaKey(rec.Container)
		all[req] = true
		if next := pos + int64(rec.Size); next > off && pos < off+length {
			window[req] = true
		}
		pos += int64(rec.Size)
	}

	probe.reset()
	var buf bytes.Buffer
	if _, err := n.RestoreRange("f", 0, off, length, &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), data[off:off+length]) {
		t.Fatal("range bytes differ")
	}
	got := map[string]bool{}
	for _, req := range probe.started(isMetaGet) {
		got[req] = true
	}
	if !reflect.DeepEqual(got, window) {
		t.Errorf("metadata read for %d containers, the window has %d (the version %d)", len(got), len(window), len(all))
	}
	if len(window) >= len(all)/4 {
		t.Fatalf("fixture: window spans %d of %d containers", len(window), len(all))
	}
	rotUnderCRCs(t, repo, "f", off+length/2)
	checkRangeVerify(t, n, repo, "f", data, off, length, 0)
}

// readAheadFixture is a base version whose recipe (1 KiB chunks) is
// several times the SegmentReader's retained prefix, and a next version
// that replaces a run of whole segments in its second half, so the demand
// sequence has a gap the read-ahead window reads into.
func readAheadFixture() (core.Config, [][]byte) {
	cfg := fastConfig()
	cfg.ChunkParams = chunker.ParamsForAvg(1 << 10)
	v0 := genData(83, 5<<20)
	v1 := append([]byte(nil), v0...)
	copy(v1[7<<19:], genData(84, 1<<19))
	return cfg, [][]byte{v0, v1}
}

// TestSegmentReadAheadOverlapsDedup: a demand for a segment beyond the
// reader's prefix is released only once it and its whole read-ahead window
// are in flight together — the later segments' round trips run while the
// dedup loop is still working through the earlier ones.
func TestSegmentReadAheadOverlapsDedup(t *testing.T) {
	cfg, versions := readAheadFixture()
	probe := newProbe(t, oss.NewMem())
	repo, err := core.OpenRepo(probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	if _, err := n.Backup("f", versions[0]); err != nil {
		t.Fatal(err)
	}
	probe.reset()
	probe.expectWaves(isSegmentRead, 1+segmentReadAhead)
	st, err := n.Backup("f", versions[1])
	if err != nil {
		t.Fatal(err)
	}
	if probe.pendingWaves() != 0 {
		t.Fatal("no segment read was ever in flight beside the demanded one")
	}
	reads := len(probe.started(isSegmentRead))
	if reads == 0 || reads > st.SegmentsFetched {
		t.Errorf("%d segment reads for %d demanded segments: the prefix must serve the first ones", reads, st.SegmentsFetched)
	}
	if probe.inFlight() != 0 {
		t.Errorf("%d requests still in flight after Backup returned", probe.inFlight())
	}
}

// TestSegmentReadAheadTwin: read-ahead changes when a segment is read,
// never what the job computes — recipes and every BackupStats counter equal
// a run that reads strictly on demand, also with a two-segment dedup cache
// (eviction order) — and a failing read matters exactly when its segment is
// demanded.
func TestSegmentReadAheadTwin(t *testing.T) {
	onDemand := func(j *backupJob) error {
		j.aheadDepth = 0
		return j.dedupe()
	}
	for _, cacheSegs := range []int{0, 2} {
		t.Run(fmt.Sprintf("DedupCacheSegments=%d", cacheSegs), func(t *testing.T) {
			cfg, versions := readAheadFixture()
			cfg.DedupCacheSegments = cacheSegs
			aheadStats, aheadRecs := backupVersions(t, cfg, versions, (*backupJob).dedupe)
			demandStats, demandRecs := backupVersions(t, cfg, versions, onDemand)
			for i := range versions {
				// Virtual time alone may differ: reads are this fixture's
				// longest timeline, and the reads nobody consumed are
				// charged (counted exactly below).
				aheadStats[i].Elapsed, demandStats[i].Elapsed = 0, 0
				if !reflect.DeepEqual(aheadStats[i], demandStats[i]) {
					t.Errorf("v%d stats diverge:\nahead:  %+v\ndemand: %+v", i, aheadStats[i], demandStats[i])
				}
				if !reflect.DeepEqual(aheadRecs[i], demandRecs[i]) {
					t.Errorf("v%d recipes diverge", i)
				}
			}
		})
	}

	// Which segment reads each mode issues for v1.
	cfg, versions := readAheadFixture()
	issued := func(step2 func(*backupJob) error, fail func(string) error) (map[string]bool, *BackupStats, *probeStore, error) {
		probe := newProbe(t, oss.NewMem())
		repo, err := core.OpenRepo(probe, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := New(repo, "l0")
		if _, err := n.Backup("f", versions[0]); err != nil {
			t.Fatal(err)
		}
		probe.reset()
		probe.mu.Lock()
		probe.fail = fail
		probe.mu.Unlock()
		st, err := n.backup("f", versions[1], versions[1], true, step2)
		set := map[string]bool{}
		for _, req := range probe.started(isSegmentRead) {
			set[req] = true
		}
		return set, st, probe, err
	}
	demanded, want, _, err := issued(onDemand, nil)
	if err != nil {
		t.Fatal(err)
	}
	ahead, _, _, err := issued((*backupJob).dedupe, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wasted, needed string
	for req := range ahead {
		if !demanded[req] && req > wasted {
			wasted = req
		}
	}
	for req := range demanded {
		if !ahead[req] {
			t.Errorf("demanded read %s not issued with read-ahead", req)
		}
		if req > needed {
			needed = req
		}
	}
	if wasted == "" || needed == "" {
		t.Fatalf("fixture: %d demanded reads, %d issued with read-ahead, none of them unconsumed", len(demanded), len(ahead))
	}
	if extra := len(ahead) - len(demanded); extra > 2*segmentReadAhead {
		t.Errorf("%d unconsumed read-ahead reads for one gap in the demand sequence", extra)
	}
	failOn := func(target string) func(string) error {
		return func(req string) error {
			if req == target {
				return fmt.Errorf("%w: %s", oss.ErrInjected, req)
			}
			return nil
		}
	}

	_, got, probe, err := issued((*backupJob).dedupe, failOn(wasted))
	if err != nil {
		t.Fatalf("a failed read of a segment nobody demanded failed the job: %v", err)
	}
	a, b := comparableStats(got), comparableStats(want)
	a.Elapsed, b.Elapsed = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats diverge after a failed, undemanded read:\ngot:  %+v\nwant: %+v", a, b)
	}
	// The failed read is never charged: the account is ahead of the
	// on-demand run's by exactly the other unconsumed reads.
	if extra, unconsumed := got.Account.IO().Reads-want.Account.IO().Reads, int64(len(ahead)-len(demanded)); extra != unconsumed-1 {
		t.Errorf("%d reads charged beyond the on-demand run's, want %d (the unconsumed reads that succeeded)", extra, unconsumed-1)
	}
	if got.Account.CPUTime() != want.Account.CPUTime() {
		t.Errorf("virtual CPU %v with read-ahead, %v on demand", got.Account.CPUTime(), want.Account.CPUTime())
	}
	if probe.inFlight() != 0 {
		t.Errorf("%d requests in flight after a successful job", probe.inFlight())
	}

	_, _, probe, err = issued((*backupJob).dedupe, failOn(needed))
	if !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("backup error = %v, want the injected fault of the demanded segment", err)
	}
	if probe.inFlight() != 0 {
		t.Errorf("%d requests in flight after the failed job returned", probe.inFlight())
	}
}

// TestCommitWave: the recipe, index and sketch puts of a commit, and the
// read of the previous catalog entry, are in flight together, and no
// catalog put starts before all of them have returned — the version-info
// object stays the last write and the commit point (DESIGN.md §6).
func TestCommitWave(t *testing.T) {
	probe := newProbe(t, oss.NewMem())
	repo, err := core.OpenRepo(probe, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(85, 2<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	commitReq := func(req string) bool {
		return strings.HasPrefix(req, "put recipes/") || strings.HasPrefix(req, "put simindex/") ||
			strings.HasPrefix(req, "get catalog/")
	}
	probe.reset()
	probe.expectWaves(commitReq, 4)
	if _, err := n.Backup("f", mutate(data, 86, 60)); err != nil {
		t.Fatal(err)
	}
	if probe.pendingWaves() != 0 {
		t.Fatal("the commit's independent round trips were not issued together")
	}
	open, seen := 0, 0
	for _, e := range probe.log() {
		switch {
		case commitReq(e):
			open++
			seen++
		case strings.HasPrefix(e, "/") && commitReq(e[1:]):
			open--
		case strings.HasPrefix(e, "put catalog/"):
			if seen != 4 || open != 0 {
				t.Fatalf("%s started with %d of 4 commit requests issued, %d unfinished", e, seen, open)
			}
		}
	}
	if got := probe.started(func(req string) bool { return strings.HasPrefix(req, "put ") }); !strings.HasSuffix(got[len(got)-1], "00000001.info") {
		t.Errorf("last put of the backup is %q, want the new version's info", got[len(got)-1])
	}
}

// TestOpenBaseWave: the base version's recipe index and segment directory
// are fetched together.
func TestOpenBaseWave(t *testing.T) {
	probe := newProbe(t, oss.NewMem())
	repo, err := core.OpenRepo(probe, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(87, 1<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	probe.expectWaves(func(req string) bool {
		return strings.HasSuffix(req, ".index") || strings.HasSuffix(req, ".recipe@0")
	}, 2)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	if probe.pendingWaves() != 0 {
		t.Fatal("index and segment directory were not fetched together")
	}
}

// TestBackupCrashAtEveryPut: a backup killed at any of its OSS puts —
// every put of persist's waves among them — leaves, after a reopen, a new
// version that is either absent from the catalog or restores byte for
// byte; the previous version always restores, and a retry succeeds.
func TestBackupCrashAtEveryPut(t *testing.T) {
	cfg := testConfig()
	baseline := oss.NewMem()
	v0 := optimizedChain(t, baseline, cfg, 88, 1<<20, 1)[0]
	v1 := mutate(v0, 89, 30)

	committed := 0
	for budget := 0; ; budget++ {
		if budget > 200 {
			t.Fatal("backup still failing with a budget of 200 puts")
		}
		mem := oss.NewMem()
		keys, _ := baseline.List("")
		for _, k := range keys {
			b, _ := baseline.Get(k)
			if err := mem.Put(k, b); err != nil {
				t.Fatal(err)
			}
		}
		faulty := oss.NewFaulty(mem)
		repo, err := core.OpenRepo(faulty, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := New(repo, "l0")
		faulty.FailPutsAfter(budget)
		_, berr := n.Backup("f", v1)

		repo, err = core.OpenRepo(mem, cfg)
		if err != nil {
			t.Fatalf("budget %d: reopen: %v", budget, err)
		}
		n = New(repo, "l0")
		vs, err := repo.Recipes.Versions("f")
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case reflect.DeepEqual(vs, []int{0}):
			if berr == nil {
				t.Fatalf("budget %d: backup succeeded but registered no version", budget)
			}
		case reflect.DeepEqual(vs, []int{0, 1}):
			committed++
			if !bytes.Equal(restoreBytes(t, n, "f", 1), v1) {
				t.Fatalf("budget %d: v1 is registered but restores wrong", budget)
			}
		default:
			t.Fatalf("budget %d: versions %v", budget, vs)
		}
		if !bytes.Equal(restoreBytes(t, n, "f", 0), v0) {
			t.Fatalf("budget %d: v0 no longer restores", budget)
		}
		if berr != nil {
			if !errors.Is(berr, oss.ErrInjected) {
				t.Fatalf("budget %d: backup error = %v, want the injected fault", budget, berr)
			}
			st, err := n.Backup("f", v1)
			if err != nil {
				t.Fatalf("budget %d: retry: %v", budget, err)
			}
			if !bytes.Equal(restoreBytes(t, n, "f", st.Version), v1) {
				t.Fatalf("budget %d: retried version restores wrong", budget)
			}
		}
		if berr == nil {
			break
		}
	}
	if committed == 0 {
		t.Fatal("no budget let the backup commit")
	}
}

// TestRestoreFailsOnMetaReadFault: only an absent container redirects
// through the global index; a fault reading one is the restore's error.
func TestRestoreFailsOnMetaReadFault(t *testing.T) {
	mem := oss.NewMem()
	cfg := testConfig()
	optimizedChain(t, mem, cfg, 90, 2<<20, 1)
	faulty := oss.NewFaulty(mem)
	repo, err := core.OpenRepo(faulty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	keys, _ := mem.List(container.Prefix)
	var metaKey string
	for _, k := range keys {
		if strings.HasSuffix(k, ".meta") {
			metaKey = k
		}
	}
	faulty.FailGet(metaKey)
	_, err = n.Restore("f", 0, io.Discard)
	if !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("restore error = %v, want the injected fault", err)
	}
	if id := strings.TrimSuffix(strings.TrimPrefix(metaKey, container.Prefix), ".meta"); !strings.Contains(err.Error(), id) {
		t.Errorf("error %q does not name container %s", err, id)
	}
	faulty.Clear()
	if st, err := n.Restore("f", 0, io.Discard); err != nil || st.Redirects != 0 {
		t.Fatalf("restore on the healed store: redirects %d, err %v", st.Redirects, err)
	}
}

// TestBackupFailsOnPreviousInfoFault: a fault reading the previous
// version's catalog entry fails the backup before its commit point instead
// of silently skipping the mark phase.
func TestBackupFailsOnPreviousInfoFault(t *testing.T) {
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	repo, err := core.OpenRepo(faulty, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(91, 1<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	infos, _ := mem.List("catalog/")
	if len(infos) != 1 {
		t.Fatalf("catalog: %v", infos)
	}
	faulty.FailGet(infos[0])
	_, err = n.Backup("f", mutate(data, 92, 20))
	if !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("backup error = %v, want the injected fault", err)
	}
	if !strings.Contains(err.Error(), "f v0") {
		t.Errorf("error %q does not name the previous version", err)
	}
	if after, _ := mem.List("catalog/"); !reflect.DeepEqual(after, infos) {
		t.Fatalf("failed backup changed the catalog: %v", after)
	}
}

// TestSimilarityIgnoresUncommittedSketch: the commit wave can die with the
// sketch written and the recipe or its index not; a later backup whose
// similarity query finds that sketch must go on without a base.
func TestSimilarityIgnoresUncommittedSketch(t *testing.T) {
	mem := oss.NewMem()
	repo, err := core.OpenRepo(mem, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	data := genData(93, 1<<20)
	if _, err := n.Backup("dead", data); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"catalog/", "recipes/"} {
		keys, _ := mem.List(prefix)
		for _, k := range keys {
			if err := mem.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := n.Backup("other", data)
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseBy != "none" {
		t.Errorf("BaseBy = %q, want none", st.BaseBy)
	}
	if !bytes.Equal(restoreBytes(t, n, "other", 0), data) {
		t.Error("restore differs")
	}
}
