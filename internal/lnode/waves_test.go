package lnode

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

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

// probeStore is a store under a recorder (every request, in arrival
// order, with when it returned) and a barrier that can hold matching
// requests until a given number of them wait together, over any further
// layers a test puts beneath them.
type probeStore struct {
	store oss.Store
	rec   oss.Recorder
	bar   oss.Barrier
}

func newProbe(inner oss.Store, under ...oss.Layer) *probeStore {
	p := &probeStore{}
	p.store = oss.With(inner, append([]oss.Layer{&p.rec, &p.bar}, under...)...)
	return p
}

// started returns the logged requests matching pred as strings, in order.
func (p *probeStore) started(pred func(oss.Op) bool) []string {
	var out []string
	for _, q := range p.rec.Requests(pred) {
		out = append(out, q.Op.String())
	}
	return out
}

func isData(op oss.Op) bool { return strings.HasSuffix(op.Key, ".data") }

func isMetaGet(op oss.Op) bool {
	return op.Kind == oss.KindGet && strings.HasPrefix(op.Key, container.Prefix) && strings.HasSuffix(op.Key, ".meta")
}

// isSegmentRead matches the ranged read of one segment recipe (not the
// prefix read at offset 0 that opens the reader).
func isSegmentRead(op oss.Op) bool {
	return op.Kind == oss.KindGetRange && strings.HasPrefix(op.Key, "recipes/") && strings.HasSuffix(op.Key, ".recipe") && op.Off != 0
}

// optimizedChain backs up versions of one file over store, running the
// G-node's optimize pass (reverse dedup, then sparse-container compaction)
// after each, and returns the version payloads. The oldest versions end up
// with chunks marked deleted in their home containers, home containers
// compacted away, and redirects into containers they never referenced.
func optimizedChain(t *testing.T, store oss.Store, cfg core.Config, seed int64, size, versions int) [][]byte {
	t.Helper()
	repo := mustOpen(t, store, cfg)
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
// redirect targets together, each one round trip at the default
// PrefetchThreads, which bounds data reads only — and one batched index
// probe, whatever the number of records: with no maintenance running, the
// pinned first pass is the only one. Data is read of home containers only
// until the last of those metas has landed.
func TestResolveWaves(t *testing.T) {
	cfg := testConfig()
	cfg.SparseUtilization = 0.9
	mem := oss.NewMem()
	kept := optimizedChain(t, mem, cfg, 81, 3<<20, 5)

	// What the waves must be, from the serial reference on a scratch handle.
	ref := mustOpen(t, mem, cfg)
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

	probe := newProbe(mem)
	repo, err := core.OpenRepo(probe.store, cfg) // cold caches
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")
	probe.rec.Take()
	probe.bar.Expect(isMetaGet, len(homes), len(targets))
	opsBefore := repo.Global.Ops()
	var buf bytes.Buffer
	st, err := n.Restore("f", 0, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), kept[0]) {
		t.Fatal("restored bytes differ")
	}
	if err := probe.bar.Err(); err != nil {
		t.Fatalf("the two metadata waves: %v", err)
	}
	if got, want := len(probe.started(isMetaGet)), len(homes)+len(targets); got != want {
		t.Errorf("%d metadata reads, want %d (each container once)", got, want)
	}
	if got := repo.Global.Ops() - opsBefore; got != 1 {
		t.Errorf("%d global-index operations for %d redirects, want 1 (one batched probe, one pass)", got, redirects)
	}
	if st.Redirects != redirects {
		t.Errorf("Redirects = %d, want %d", st.Redirects, redirects)
	}
	// Before resolution finishes, the only data requested is of home
	// containers, begun while the probe and the target wave run.
	homeKeys := map[string]bool{}
	for id := range homes {
		if m, err := ref.Containers.ReadMeta(id); err == nil {
			for _, k := range m.DataKeys() {
				homeKeys[k] = true
			}
		}
	}
	reqs := probe.rec.Requests(nil)
	lastMeta := -1
	for i, q := range reqs {
		if isMetaGet(q.Op) {
			lastMeta = i
		}
	}
	for _, q := range reqs[:lastMeta+1] {
		if isData(q.Op) && !homeKeys[q.Op.Key] {
			t.Fatalf("data read %q of no home container before the last metadata read", q.Op)
		}
	}
}

// TestResolveSequenceMemoized: a resolution pass reads each distinct
// container's metadata once however many records reference it, and pays
// for every other lookup from its memo; with no container written since
// the pass began, pinSequence accepts it once pinned and resolves no more.
func TestResolveSequenceMemoized(t *testing.T) {
	cfg := testConfig()
	mem := oss.NewMem()
	data := optimizedChain(t, mem, cfg, 3, 1<<20, 1)[0]

	probe := newProbe(mem)
	repo := mustOpen(t, probe.store, cfg)
	n := New(repo, "l0")
	r, err := repo.Recipes.GetRecipe("f", 0)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[container.ID]bool{}
	for _, rec := range allRecords(r) {
		distinct[rec.Container] = true
	}

	probe.rec.Take()
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
		t.Errorf("%d metadata requests, want %d (one per distinct container)", got, len(distinct))
	}
	if c.ResolveMetaReads != len(distinct) {
		t.Errorf("ResolveMetaReads = %d, want %d (one pass consults each container once)", c.ResolveMetaReads, len(distinct))
	}
	if got, want := c.ResolveMetaReads+c.ResolveMetaMemoHits, c.Requests; got != want {
		t.Errorf("%d lookups, want %d (one per record)", got, want)
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

	probe := newProbe(mem)
	repo := mustOpen(t, probe.store, cfg)
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

	probe.rec.Take()
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
	probe := newProbe(oss.NewMem())
	repo := mustOpen(t, probe.store, cfg)
	n := New(repo, "l0")
	if _, err := n.Backup("f", versions[0]); err != nil {
		t.Fatal(err)
	}
	probe.rec.Take()
	probe.bar.Expect(isSegmentRead, 1+segmentReadAhead)
	st, err := n.Backup("f", versions[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.bar.Err(); err != nil {
		t.Fatalf("no segment read was ever in flight beside the demanded one: %v", err)
	}
	reads := len(probe.started(isSegmentRead))
	if reads == 0 || reads > st.SegmentsFetched {
		t.Errorf("%d segment reads for %d demanded segments: the prefix must serve the first ones", reads, st.SegmentsFetched)
	}
	if n, _ := probe.rec.InFlight(nil); n != 0 {
		t.Errorf("%d requests still in flight after Backup returned", n)
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

	// Which segment reads each mode issues for v1, with the one named
	// failing (if any) failed.
	cfg, versions := readAheadFixture()
	issued := func(step2 func(*backupJob) error, failing string) (map[string]bool, *BackupStats, *probeStore, error) {
		probe := newProbe(oss.NewMem(), oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
			if op.String() == failing {
				return op, fmt.Errorf("%w: %s", oss.ErrInjected, op)
			}
			return oss.Do(next, op)
		}))
		repo := mustOpen(t, probe.store, cfg)
		n := New(repo, "l0")
		if _, err := n.Backup("f", versions[0]); err != nil {
			t.Fatal(err)
		}
		probe.rec.Take()
		st, err := n.backup("f", window{data: versions[1], eof: true}, step2)
		set := map[string]bool{}
		for _, req := range probe.started(isSegmentRead) {
			set[req] = true
		}
		return set, st, probe, err
	}
	demanded, want, _, err := issued(onDemand, "")
	if err != nil {
		t.Fatal(err)
	}
	ahead, _, _, err := issued((*backupJob).dedupe, "")
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
	_, got, probe, err := issued((*backupJob).dedupe, wasted)
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
	if n, _ := probe.rec.InFlight(nil); n != 0 {
		t.Errorf("%d requests in flight after a successful job", n)
	}

	_, _, probe, err = issued((*backupJob).dedupe, needed)
	if !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("backup error = %v, want the injected fault of the demanded segment", err)
	}
	if n, _ := probe.rec.InFlight(nil); n != 0 {
		t.Errorf("%d requests in flight after the failed job returned", n)
	}
}

// TestCommitWave: a backup's commit begins only after its payloads. Every
// new container's meta put and the recipe, index and sketch puts are in
// flight together; none begins before the job's last payload put has
// returned, so each meta names a payload already stored. The previous
// version's garbage mark begins after all of them have returned, and the new
// version's catalog put after the mark, as the backup's last put — the
// commit point (DESIGN.md §6).
func TestCommitWave(t *testing.T) {
	data := genData(85, 2<<20)
	// The second half is new: v0's containers of it become garbage (a mark
	// put) and v1 writes containers of its own.
	next := append(bytes.Clone(data[:1<<20]), genData(86, 1<<20)...)
	isMetaPut := func(op oss.Op) bool { return op.Kind == oss.KindPut && strings.HasSuffix(op.Key, ".meta") }
	commitReq := func(op oss.Op) bool {
		return isMetaPut(op) || op.Kind == oss.KindPut && (strings.HasPrefix(op.Key, "recipes/") || strings.HasPrefix(op.Key, "simindex/"))
	}
	// A first run counts the metas the held one must wait for.
	metas := 0
	for _, held := range []bool{false, true} {
		probe := newProbe(oss.NewMem())
		repo := mustOpen(t, probe.store, testConfig())
		n := New(repo, "l0")
		if _, err := n.Backup("f", data); err != nil {
			t.Fatal(err)
		}
		probe.rec.Take()
		if held {
			probe.bar.Expect(commitReq, metas+3)
		}
		if _, err := n.Backup("f", next); err != nil {
			t.Fatal(err)
		}
		if !held {
			if metas = len(probe.rec.Requests(isMetaPut)); metas == 0 {
				t.Fatal("fixture: the second backup wrote no container")
			}
			continue
		}
		if err := probe.bar.Err(); err != nil {
			t.Fatalf("the commit's independent puts were not issued together: %v", err)
		}
		puts := probe.rec.Requests(func(op oss.Op) bool { return op.Kind == oss.KindPut })
		lastData, payloads := 0, map[string]int{} // payload key → when its put returned
		for _, q := range puts {
			if isData(q.Op) {
				lastData, payloads[q.Key] = max(lastData, q.End), q.End
			}
		}
		if len(puts) < 2 || !strings.HasSuffix(puts[len(puts)-2].Key, "00000000.info") || !strings.HasSuffix(puts[len(puts)-1].Key, "00000001.info") {
			t.Fatalf("the backup's puts do not end with v0's mark, then v1's catalog entry: %v", puts[max(0, len(puts)-2):])
		}
		mark, commit := puts[len(puts)-2], puts[len(puts)-1]
		for _, q := range probe.rec.Requests(commitReq) {
			if q.Begin < lastData {
				t.Errorf("%s began before the job's last payload put returned", q.Op)
			}
			if end, ok := payloads[strings.TrimSuffix(q.Key, ".meta")+".data"]; isMetaPut(q.Op) && (!ok || end == 0 || end > q.Begin) {
				t.Errorf("%s began before its payload put returned", q.Op)
			}
			if q.End == 0 || q.End > mark.Begin {
				t.Errorf("%s had not returned when the mark put began", q.Op)
			}
		}
		if mark.End == 0 || mark.End > commit.Begin {
			t.Errorf("%s had not returned when the catalog put began", mark.Op)
		}
	}
}

// TestOpenBaseWave: the base version's recipe index, segment directory and
// catalog entry — the mark phase's input — are fetched together. On a
// handle whose similarity mirror holds a sketch of the file, they go out
// beside the catalog listing that confirms the guess; on a cold handle the
// listing returns before any of them begins.
func TestOpenBaseWave(t *testing.T) {
	isBaseRead := func(op oss.Op) bool {
		return op.Kind != oss.KindPut && (strings.HasSuffix(op.Key, ".index") || strings.HasSuffix(op.Key, ".recipe") && op.Off == 0 ||
			op.Kind == oss.KindGet && strings.HasPrefix(op.Key, "catalog/"))
	}
	isListing := func(op oss.Op) bool { return op.Kind == oss.KindList && strings.HasPrefix(op.Key, "catalog/") }
	probe := newProbe(oss.NewMem())
	repo := mustOpen(t, probe.store, testConfig())
	n := New(repo, "l0")
	data := genData(87, 1<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	if _, known := repo.SimIndex.Latest("f"); !known {
		t.Fatal("fixture: the first backup left the mirror without the file's sketch")
	}
	for _, w := range []struct {
		match func(oss.Op) bool
		size  int
		what  string
	}{
		{isBaseRead, 3, "index, segment directory and catalog entry"},
		{func(op oss.Op) bool { return isListing(op) || isBaseRead(op) }, 4, "the catalog listing and the guessed base's three objects"},
	} {
		probe.bar.Expect(w.match, w.size)
		_, err := n.Backup("f", data)
		if err := probe.bar.Err(); err != nil {
			t.Fatalf("%s were not fetched together: %v", w.what, err)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	probe.rec.Take()
	if _, err := New(mustOpen(t, probe.store, testConfig()), "l1").Backup("f", data); err != nil {
		t.Fatal(err)
	}
	listings, reads := probe.rec.Requests(isListing), probe.rec.Requests(isBaseRead)
	if len(listings) != 1 || len(reads) != 3 {
		t.Fatalf("cold handle: %d catalog listings and %d base reads, want 1 and 3", len(listings), len(reads))
	}
	for _, q := range reads {
		if q.Begin < listings[0].End {
			t.Errorf("cold handle: %s began before the catalog listing returned", q.Op)
		}
	}
}

// TestPayloadPartsWave: a payload of at least 4·L·B_w goes as parts put
// side by side — both wait at a barrier until the other is in flight — and
// no meta is put before the last part has returned: the payload barrier
// holds for every part.
func TestPayloadPartsWave(t *testing.T) {
	isPartPut := func(op oss.Op) bool { return op.Kind == oss.KindPut && isData(op) }
	isMetaPut := func(op oss.Op) bool { return op.Kind == oss.KindPut && strings.HasSuffix(op.Key, ".meta") }
	probe := newProbe(oss.NewMem())
	cfg := testConfig()
	cfg.ContainerCapacity = 1 << 20 // one payload of 1 MiB: two parts at the default costs
	repo := mustOpen(t, probe.store, cfg)
	probe.bar.Expect(isPartPut, 2)
	st, err := New(repo, "l0").Backup("f", genData(91, 1<<20))
	if err := probe.bar.Err(); err != nil {
		t.Fatalf("the payload's parts were not put together: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(st.NewContainers) != 1 {
		t.Fatalf("fixture: %d new containers, want one", len(st.NewContainers))
	}
	m, err := repo.Containers.ReadMeta(st.NewContainers[0])
	if err != nil || m.NumParts() != 2 {
		t.Fatalf("fixture: the payload is in %d parts (%v), want 2", m.NumParts(), err)
	}
	parts, metas := probe.rec.Requests(isPartPut), probe.rec.Requests(isMetaPut)
	if len(parts) != 2 || len(metas) == 0 {
		t.Fatalf("%d part puts and %d meta puts, want 2 and some", len(parts), len(metas))
	}
	for _, q := range metas {
		for _, p := range parts {
			if q.Begin < p.End {
				t.Errorf("%s began before %s returned", q.Op, p.Op)
			}
		}
	}
}

// TestBackupCrashAtEveryMutation: a backup killed at any of its OSS
// mutations — every payload put and every put of persist's waves among
// them, and every delete — leaves, plain and over RS(4+2), where a payload
// put is six puts a crash can cut anywhere: only metas that name a stored,
// whole payload; after a reopen, a new version that is either absent from
// the catalog or restores byte for byte; a previous version that always
// restores; when the new version is absent, a store one FullSweep returns
// to the baseline's containers, recipes and sketches; and a retry that
// succeeds. The warm-mirror arms load the handle's similarity mirror first
// — reads only, no budget spent — so the backup opens the base it guesses
// beside the catalog listing. The parts arms price a request eight times
// cheaper, so that the suite's 256 KiB payloads go as two parts each: no
// meta names a payload short of a part, and the sweep reclaims every part
// a cut backup left.
func TestBackupCrashAtEveryMutation(t *testing.T) {
	striped := testConfig()
	striped.ECDataShards, striped.ECParityShards = 4, 2
	split, splitStriped := testConfig(), striped
	split.Costs.OSSRequestLatency /= 8
	splitStriped.Costs.OSSRequestLatency /= 8
	for _, arm := range []struct {
		cfg         core.Config
		warm, parts bool
	}{{testConfig(), false, false}, {striped, false, false}, {testConfig(), true, false}, {striped, true, false}, {split, false, true}, {splitStriped, false, true}} {
		cfg, name := arm.cfg, fmt.Sprintf("ec=%d+%d", arm.cfg.ECDataShards, arm.cfg.ECParityShards)
		if arm.warm {
			name += ",warm-mirror"
		}
		if arm.parts {
			name += ",parts"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			baseline := oss.NewMem()
			v0 := optimizedChain(t, baseline, cfg, 88, 1<<20, 1)[0]
			// Edits in the head and a new tail: new containers, and v0's of the
			// old tail become garbage (a mark put).
			v1 := append(mutate(v0[:640<<10], 89, 10), genData(89, 512<<10)...)
			namespaces := []string{container.Prefix, "recipes/", "simindex/", "ec/"}
			want := keySet(t, baseline, namespaces)

			committed, inParts := 0, 0
			oss.CrashAtEvery(t, baseline, 1, 201, func(s oss.Store) error {
				// The open and the mirror's load spend none of the budget: they
				// mutate nothing.
				repo := mustOpen(t, s, cfg)
				if arm.warm {
					if _, _, err := repo.SimIndex.Query(nil, 1); err != nil {
						return err
					}
					if v, known := repo.SimIndex.Latest("f"); !known || v != 0 {
						t.Fatalf("fixture: the loaded mirror guesses v%d, %v; want v0", v, known)
					}
				}
				_, err := New(repo, "l0").Backup("f", v1)
				return err
			}, func(mem *oss.Mem, budget int, berr error) bool {
				repo := mustOpen(t, mem, cfg)
				ids, err := repo.Containers.List()
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					c, err := repo.Containers.Read(id)
					if err != nil {
						t.Fatalf("budget %d: listed container %s: %v", budget, id, err)
					}
					if c.Meta.NumParts() > 1 {
						inParts++
					}
				}
				n := New(repo, "l0")
				vs, err := repo.Recipes.Versions("f")
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case reflect.DeepEqual(vs, []int{0}):
					if berr == nil {
						t.Fatalf("budget %d: backup succeeded but registered no version", budget)
					}
					swept := mem.Clone()
					srepo := mustOpen(t, swept, cfg)
					if _, err := gnode.New(srepo).FullSweep(); err != nil {
						t.Fatalf("budget %d: sweep: %v", budget, err)
					}
					if got := keySet(t, swept, namespaces); !reflect.DeepEqual(got, want) {
						t.Fatalf("budget %d: swept store differs from the baseline:\ngot  %v\nwant %v", budget, got, want)
					}
				case reflect.DeepEqual(vs, []int{0, 1}):
					committed++
					if err := restoreMatches(n, "f", 1, v1); err != nil {
						t.Fatalf("budget %d: v1 is registered but restores wrong: %v", budget, err)
					}
				default:
					t.Fatalf("budget %d: versions %v", budget, vs)
				}
				if err := restoreMatches(n, "f", 0, v0); err != nil {
					t.Fatalf("budget %d: v0 no longer restores: %v", budget, err)
				}
				if berr != nil {
					st, err := n.Backup("f", v1)
					if err != nil {
						t.Fatalf("budget %d: retry: %v", budget, err)
					}
					if err := restoreMatches(n, "f", st.Version, v1); err != nil {
						t.Fatalf("budget %d: retried version restores wrong: %v", budget, err)
					}
				}
				return false
			})
			if committed == 0 {
				t.Fatal("no budget let the backup commit")
			}
			if arm.parts != (inParts > 0) {
				t.Fatalf("fixture: %d containers in parts were read, want them only in the parts arms", inParts)
			}
		})
	}
}

// keySet lists the keys of mem under the given prefixes.
func keySet(t *testing.T, mem *oss.Mem, prefixes []string) []string {
	t.Helper()
	var out []string
	for _, p := range prefixes {
		keys, err := mem.List(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, keys...)
	}
	return out
}

// TestRestoreFailsOnMetaReadFault: only an absent container redirects
// through the global index; a fault reading one is the restore's error.
func TestRestoreFailsOnMetaReadFault(t *testing.T) {
	mem := oss.NewMem()
	cfg := testConfig()
	optimizedChain(t, mem, cfg, 90, 2<<20, 1)
	faulty := oss.NewFaulty(mem)
	repo := mustOpen(t, faulty, cfg)
	n := New(repo, "l0")
	keys, _ := mem.List(container.Prefix)
	var metaKey string
	for _, k := range keys {
		if strings.HasSuffix(k, ".meta") {
			metaKey = k
		}
	}
	faulty.FailGet(metaKey)
	_, err := n.Restore("f", 0, io.Discard)
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
// version's catalog entry surfaces in the open wave, beside the base's
// recipe index and segment directory, and fails the backup before it puts
// anything, instead of silently skipping the mark phase — also when the
// open went out on the mirror's guess, which the listing confirms.
func TestBackupFailsOnPreviousInfoFault(t *testing.T) {
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	repo := mustOpen(t, faulty, testConfig())
	n := New(repo, "l0")
	data := genData(91, 1<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	infos, _ := mem.List("catalog/")
	if len(infos) != 1 {
		t.Fatalf("catalog: %v", infos)
	}
	if v, known := repo.SimIndex.Latest("f"); !known || v != 0 {
		t.Fatalf("fixture: the mirror guesses v%d, %v; want v0", v, known)
	}
	before, _ := mem.List("")
	faulty.FailGet(infos[0])
	_, err := n.Backup("f", mutate(data, 92, 20))
	if !errors.Is(err, oss.ErrInjected) {
		t.Fatalf("backup error = %v, want the injected fault", err)
	}
	if !strings.Contains(err.Error(), "f v0") {
		t.Errorf("error %q does not name the previous version", err)
	}
	if after, _ := mem.List(""); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed backup stored objects:\nbefore %v\nafter  %v", before, after)
	}
}

// TestSimilarityIgnoresUncommittedSketch: a backup can stop before its
// commit point with the sketch written — and the recipe or its index not (a
// crash inside the commit wave), or both (a crash, or a lost container,
// after it); a later backup whose similarity query finds that sketch must
// go on without a base, whose containers no version keeps.
func TestSimilarityIgnoresUncommittedSketch(t *testing.T) {
	for _, left := range [][]string{{"catalog/", "recipes/"}, {"catalog/"}} {
		mem := oss.NewMem()
		repo := mustOpen(t, mem, testConfig())
		n := New(repo, "l0")
		data := genData(93, 1<<20)
		if _, err := n.Backup("dead", data); err != nil {
			t.Fatal(err)
		}
		for _, prefix := range left {
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
			t.Errorf("%v deleted: BaseBy = %q, want none", left, st.BaseBy)
		}
		if !bytes.Equal(restoreBytes(t, n, "other", 0), data) {
			t.Error("restore differs")
		}
	}
}
