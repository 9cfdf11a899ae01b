package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/pipe"
)

// testRepo builds containers on a mem store and returns a fetcher plus a
// helper to look up chunk payloads.
type testRepo struct {
	cs     *container.Store
	chunks map[fingerprint.FP][]byte
	loc    map[fingerprint.FP]container.ID
	t      *testing.T
}

func newTestRepo(t *testing.T, capacity int) *testRepo {
	t.Helper()
	cs, err := container.NewStore(oss.NewMem(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	return &testRepo{cs: cs, chunks: make(map[fingerprint.FP][]byte), loc: make(map[fingerprint.FP]container.ID), t: t}
}

// addContainer stores the given chunk payloads in one container.
func (r *testRepo) addContainer(payloads ...[]byte) container.ID {
	r.t.Helper()
	b := container.NewBuilder(r.cs)
	var id container.ID
	for _, p := range payloads {
		fp := fingerprint.OfBytes(p)
		var err error
		id, err = b.Add(fp, p)
		if err != nil {
			r.t.Fatal(err)
		}
		r.chunks[fp] = p
		r.loc[fp] = id
	}
	if err := b.Flush(); err != nil {
		r.t.Fatal(err)
	}
	return id
}

func (r *testRepo) fetcher() Fetcher {
	return func(id container.ID) (*container.Container, error) { return r.cs.Read(id) }
}

func (r *testRepo) request(p []byte) Request {
	fp := fingerprint.OfBytes(p)
	return Request{FP: fp, Container: r.loc[fp], Size: uint32(len(p))}
}

func payload(seed, n int) []byte {
	b := make([]byte, n)
	rnd := rand.New(rand.NewSource(int64(seed)))
	rnd.Read(b)
	return b
}

// fragmentedScenario builds a deliberately fragmented restore sequence:
// chunks scattered over many containers, with self-references (repeated
// chunks far apart) and large-span containers (chunks of one container
// needed far apart in the stream).
func fragmentedScenario(t *testing.T) (*testRepo, []Request, []byte) {
	r := newTestRepo(t, 64<<10)
	const nContainers = 20
	const perContainer = 8
	chunkBytes := make([][][]byte, nContainers)
	for c := 0; c < nContainers; c++ {
		var ps [][]byte
		for i := 0; i < perContainer; i++ {
			ps = append(ps, payload(c*100+i, 4096))
		}
		chunkBytes[c] = ps
		r.addContainer(ps...)
	}
	var seq []Request
	var want bytes.Buffer
	rnd := rand.New(rand.NewSource(42))
	add := func(p []byte) {
		seq = append(seq, r.request(p))
		want.Write(p)
	}
	// Interleave: mostly sequential within containers but with jumps,
	// self-references and large spans.
	for c := 0; c < nContainers; c++ {
		for i := 0; i < perContainer; i++ {
			add(chunkBytes[c][i])
			if rnd.Intn(5) == 0 {
				// Jump to a chunk from a far container (large span).
				fc := (c + 7 + rnd.Intn(11)) % nContainers
				add(chunkBytes[fc][rnd.Intn(perContainer)])
			}
			if rnd.Intn(9) == 0 && len(seq) > 10 {
				// Self-reference: repeat an earlier chunk.
				prev := seq[rnd.Intn(len(seq))]
				add(r.chunks[prev.FP])
			}
		}
	}
	return r, seq, want.Bytes()
}

func runPolicy(t *testing.T, p Restorer, seq []Request, fetch Fetcher) (Stats, []byte) {
	t.Helper()
	var out bytes.Buffer
	stats, err := p.Restore(seq, fetch, func(d []byte) error {
		out.Write(d)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return stats, out.Bytes()
}

func TestAllPoliciesCorrect(t *testing.T) {
	repo, seq, want := fragmentedScenario(t)
	cfg := Config{MemBytes: 256 << 10, DiskBytes: 4 << 20, LAW: 32}
	for _, name := range []string{"fv", "opt", "alacc", "lru"} {
		p, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, out := runPolicy(t, p, seq, repo.fetcher())
		if !bytes.Equal(out, want) {
			t.Errorf("%s: output mismatch (%d vs %d bytes)", name, len(out), len(want))
		}
		if stats.ContainersRead == 0 || stats.LogicalBytes != int64(len(want)) {
			t.Errorf("%s: suspicious stats %+v", name, stats)
		}
	}
}

func TestNewUnknownPolicy(t *testing.T) {
	if _, err := New("nope", Config{}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestFVReadsEachContainerOnce(t *testing.T) {
	repo, seq, _ := fragmentedScenario(t)
	// Ample capacity: the FV guarantee is exactly-once container reads.
	p := NewFV(Config{MemBytes: 64 << 20, DiskBytes: 256 << 20, LAW: 32})
	stats, _ := runPolicy(t, p, seq, repo.fetcher())
	if stats.Rereads != 0 {
		t.Fatalf("FV rereads = %d, want 0", stats.Rereads)
	}
	unique := map[container.ID]bool{}
	for _, r := range seq {
		unique[r.Container] = true
	}
	if stats.ContainersRead != len(unique) {
		t.Fatalf("FV read %d containers, want %d unique", stats.ContainersRead, len(unique))
	}
}

func TestFVTightMemoryUsesDiskLayer(t *testing.T) {
	repo, seq, want := fragmentedScenario(t)
	// Memory fits only a few chunks; disk absorbs the spill.
	p := NewFV(Config{MemBytes: 32 << 10, DiskBytes: 64 << 20, LAW: 16})
	stats, out := runPolicy(t, p, seq, repo.fetcher())
	if !bytes.Equal(out, want) {
		t.Fatal("output mismatch under tight memory")
	}
	if stats.DiskSwaps == 0 {
		t.Fatal("expected disk swaps under tight memory")
	}
	if stats.Rereads != 0 {
		t.Fatalf("rereads = %d despite sufficient disk layer", stats.Rereads)
	}
}

func TestFVBeatsOrMatchesOPTAndLRU(t *testing.T) {
	repo, seq, _ := fragmentedScenario(t)
	cfg := Config{MemBytes: 48 << 10, DiskBytes: 0, LAW: 24}
	fv, _ := runPolicy(t, NewFV(cfg), seq, repo.fetcher())
	opt, _ := runPolicy(t, NewOPT(cfg), seq, repo.fetcher())
	lru, _ := runPolicy(t, NewLRU(cfg), seq, repo.fetcher())
	if fv.ContainersRead > opt.ContainersRead {
		t.Errorf("FV read %d containers, OPT %d — FV should not lose", fv.ContainersRead, opt.ContainersRead)
	}
	if fv.ContainersRead > lru.ContainersRead {
		t.Errorf("FV read %d containers, LRU %d — FV should not lose", fv.ContainersRead, lru.ContainersRead)
	}
}

func TestSelfReferenceHandling(t *testing.T) {
	r := newTestRepo(t, 64<<10)
	a := payload(1, 4096)
	var fill [][]byte
	for i := 0; i < 7; i++ {
		fill = append(fill, payload(100+i, 4096))
	}
	r.addContainer(append([][]byte{a}, fill...)...)
	// Many full-size distractor containers between the two uses of chunk
	// a; an LRU holding ~3 containers must evict a's container.
	var distractors [][]byte
	for c := 0; c < 12; c++ {
		var ps [][]byte
		for i := 0; i < 8; i++ {
			ps = append(ps, payload(1000+c*10+i, 4096))
		}
		r.addContainer(ps...)
		distractors = append(distractors, ps[0])
	}
	var seq []Request
	seq = append(seq, r.request(a))
	for _, d := range distractors {
		seq = append(seq, r.request(d))
	}
	seq = append(seq, r.request(a)) // self-reference beyond any small LAW

	cfg := Config{MemBytes: 3 * 36 << 10, DiskBytes: 0, LAW: 3}
	fv, _ := runPolicy(t, NewFV(cfg), seq, r.fetcher())
	if fv.Rereads != 0 {
		t.Errorf("FV reread a self-referenced container: %+v", fv)
	}
	lru, _ := runPolicy(t, NewLRU(cfg), seq, r.fetcher())
	if lru.Rereads == 0 {
		t.Errorf("LRU unexpectedly held the self-referenced container: %+v", lru)
	}
}

func TestOPTEvictsOutsideLAWFirst(t *testing.T) {
	r := newTestRepo(t, 64<<10)
	// Three containers; cache holds two.
	p1, p2, p3 := payload(1, 4096), payload(2, 4096), payload(3, 4096)
	r.addContainer(p1)
	r.addContainer(p2)
	r.addContainer(p3)
	// Sequence: 1, 2, 3, 2 with LAW covering the whole tail: OPT must
	// evict container 1 (unused ahead), keeping 2 for the final hit.
	seq := []Request{r.request(p1), r.request(p2), r.request(p3), r.request(p2)}
	opt := NewOPT(Config{MemBytes: 2 * 5000, LAW: 10})
	stats, _ := runPolicy(t, opt, seq, r.fetcher())
	if stats.ContainersRead != 3 || stats.Rereads != 0 {
		t.Fatalf("OPT stats = %+v, want 3 reads 0 rereads", stats)
	}
}

func TestStatsReadAmplification(t *testing.T) {
	s := Stats{ContainersRead: 50, LogicalBytes: 200 << 20}
	if ra := s.ReadAmplification(); ra != 25 {
		t.Fatalf("ReadAmplification = %f, want 25", ra)
	}
	if (Stats{}).ReadAmplification() != 0 {
		t.Fatal("empty stats amplification should be 0")
	}
}

func TestPrefetcher(t *testing.T) {
	repo, seq, want := fragmentedScenario(t)
	for _, buffer := range []int{0, 1, 2, 8} {
		pf := NewPrefetcher(repo.fetcher(), seq, buffer)
		p := NewFV(Config{MemBytes: 64 << 20, DiskBytes: 256 << 20, LAW: 32})
		stats, out := runPolicy(t, p, seq, pf.Fetch)
		pf.Close()
		if !bytes.Equal(out, want) {
			t.Fatalf("buffer=%d: output mismatch", buffer)
		}
		if stats.Rereads != 0 {
			t.Fatalf("buffer=%d: rereads = %d", buffer, stats.Rereads)
		}
	}
}

// TestPrefetcherEarlyClose: a restore that gives up stops issuing reads.
// The window's eight reads all run at once — the fetcher's store gates the
// requests in flight, not the window — and Close returns only once every
// one of them has. Close is what abandons: after it a read started late
// never reaches the fetcher. Closing again is harmless.
func TestPrefetcherEarlyClose(t *testing.T) {
	repo, seq, _ := fragmentedScenario(t)
	const buffer = 8
	var calls, running atomic.Int64
	entered := make(chan struct{}, buffer)
	release := make(chan struct{})
	pf := NewPrefetcher(func(id container.ID) (*container.Container, error) {
		calls.Add(1)
		running.Add(1)
		defer running.Add(-1)
		entered <- struct{}{}
		<-release
		return repo.cs.Read(id)
	}, seq, buffer)
	if got := pf.Stats().Dispatched; got != buffer {
		t.Fatalf("fixture: %d reads started, want the buffer's %d", got, buffer)
	}
	for i := 0; i < buffer; i++ {
		<-entered // a window that ran fewer at once would hang here
	}
	close(release)
	pf.Close()
	if got, left := calls.Load(), running.Load(); got != buffer || left != 0 {
		t.Fatalf("the fetcher ran %d times and %d still run after Close, want %d and none", got, left, buffer)
	}
	pf.Close() // idempotent

	pf = NewPrefetcher(repo.fetcher(), seq[:1], buffer)
	pf.Close()
	late := seq[len(seq)-1].Container
	pf.ahead.Start(late)
	if _, _, err := pf.ahead.Take(late); !errors.Is(err, pipe.ErrAbandoned) {
		t.Fatalf("a read started after Close returned %v, want pipe.ErrAbandoned", err)
	}
}

func TestALACCSpansOversizeChunk(t *testing.T) {
	r := newTestRepo(t, 1<<20)
	big := payload(1, 300<<10) // larger than the FAA
	small := payload(2, 4096)
	r.addContainer(big, small)
	seq := []Request{r.request(big), r.request(small)}
	p := NewALACC(Config{MemBytes: 256 << 10, FAABytes: 128 << 10, LAW: 4})
	var out bytes.Buffer
	stats, err := p.Restore(seq, r.fetcher(), func(d []byte) error { out.Write(d); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != len(big)+len(small) {
		t.Fatalf("restored %d bytes", out.Len())
	}
	if stats.LogicalBytes != int64(out.Len()) {
		t.Fatalf("stats = %+v", stats)
	}
}

func BenchmarkRestorePolicies(b *testing.B) {
	// Shared scenario across sub-benchmarks.
	tt := &testing.T{}
	repo, seq, _ := fragmentedScenario(tt)
	for _, name := range []string{"fv", "opt", "alacc", "lru"} {
		b.Run(name, func(b *testing.B) {
			p, err := New(name, Config{MemBytes: 256 << 10, DiskBytes: 4 << 20, LAW: 32})
			if err != nil {
				b.Fatal(err)
			}
			// B/op against the bytes restored is the copy-per-chunk gauge:
			// a policy that copies what it caches allocates what it caches.
			b.ReportAllocs()
			var total int64
			for i := 0; i < b.N; i++ {
				stats, err := p.Restore(seq, repo.fetcher(), func(d []byte) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				total += stats.LogicalBytes
			}
			b.SetBytes(total / int64(b.N))
		})
	}
}

func TestPrefetcherOutOfOrderDegradesGracefully(t *testing.T) {
	// The contract allows consumers to deviate from first-need order; the
	// prefetcher must never deadlock, falling back to direct fetches.
	repo, seq, _ := fragmentedScenario(t)
	pf := NewPrefetcher(repo.fetcher(), seq, 2) // tiny buffer
	defer pf.Close()

	// Consume unique containers in REVERSE first-need order.
	seen := map[container.ID]bool{}
	var order []container.ID
	for _, r := range seq {
		if !seen[r.Container] {
			seen[r.Container] = true
			order = append(order, r.Container)
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		c, err := pf.Fetch(order[i])
		if err != nil {
			t.Fatal(err)
		}
		if c.Meta.ID != order[i] {
			t.Fatalf("fetched %v, want %v", c.Meta.ID, order[i])
		}
	}
}

func TestOPTAndALACCUnderExtremePressure(t *testing.T) {
	// A cache big enough for exactly one container: every policy must
	// still produce correct output, whatever the reread count.
	repo, seq, want := fragmentedScenario(t)
	for _, name := range []string{"opt", "alacc", "lru", "fv"} {
		p, err := New(name, Config{MemBytes: 40 << 10, FAABytes: 20 << 10, LAW: 8})
		if err != nil {
			t.Fatal(err)
		}
		_, out := runPolicy(t, p, seq, repo.fetcher())
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: corrupt output under extreme memory pressure", name)
		}
	}
}

func TestEmptySequence(t *testing.T) {
	repo, _, _ := fragmentedScenario(t)
	for _, name := range []string{"fv", "opt", "alacc", "lru"} {
		p, _ := New(name, Config{})
		stats, err := p.Restore(nil, repo.fetcher(), func([]byte) error { return nil })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Requests != 0 || stats.ContainersRead != 0 {
			t.Fatalf("%s: empty restore stats %+v", name, stats)
		}
	}
}

func TestEmitErrorPropagates(t *testing.T) {
	repo, seq, _ := fragmentedScenario(t)
	sentinel := fmt.Errorf("sink full")
	for _, name := range []string{"fv", "opt", "alacc", "lru"} {
		p, _ := New(name, Config{MemBytes: 1 << 20, LAW: 16})
		n := 0
		_, err := p.Restore(seq, repo.fetcher(), func([]byte) error {
			n++
			if n == 5 {
				return sentinel
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "sink full") {
			t.Fatalf("%s: emit error lost: %v", name, err)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MemBytes <= 0 || cfg.LAW <= 0 || cfg.FAABytes <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.FAABytes != cfg.MemBytes/2 {
		t.Fatalf("FAA default = %d, want half of %d", cfg.FAABytes, cfg.MemBytes)
	}
}

func TestSpillStoreModes(t *testing.T) {
	s := newSpillStore()
	fp := fingerprint.OfBytes([]byte("x"))
	s.put(fp, []byte("payload"))
	if !s.has(fp) || s.bytes != 7 {
		t.Fatalf("state after put: has=%v bytes=%d", s.has(fp), s.bytes)
	}
	s.put(fp, []byte("other")) // duplicate put is a no-op
	d, ok := s.take(fp)
	if !ok || string(d) != "payload" {
		t.Fatalf("take = %q, %v", d, ok)
	}
	if s.has(fp) || s.bytes != 0 {
		t.Fatal("state after take")
	}
	if _, ok := s.take(fp); ok {
		t.Fatal("double take")
	}
	s.put(fp, []byte("again"))
	s.drop(fp)
	if s.has(fp) || s.bytes != 0 {
		t.Fatal("drop failed")
	}
}

func TestFVCacheSmallerThanOneChunk(t *testing.T) {
	// Regression: with memory smaller than a single (super)chunk and no
	// disk layer, admitting a fetched container's other chunks must never
	// evict the chunk the current request came for.
	r := newTestRepo(t, 1<<20)
	big := payload(1, 300<<10) // one huge chunk (a superchunk)
	var small [][]byte
	for i := 0; i < 6; i++ {
		small = append(small, payload(10+i, 4<<10))
	}
	r.addContainer(append([][]byte{big}, small...)...)
	var seq []Request
	var want bytes.Buffer
	seq = append(seq, r.request(big))
	want.Write(big)
	for _, p := range small {
		seq = append(seq, r.request(p))
		want.Write(p)
	}
	// Repeat the big chunk at the end (it must be refetchable).
	seq = append(seq, r.request(big))
	want.Write(big)

	p := NewFV(Config{MemBytes: 16 << 10, DiskBytes: 0, LAW: 2})
	stats, out := runPolicy(t, p, seq, r.fetcher())
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatal("output corrupt with cache smaller than one chunk")
	}
	if stats.LogicalBytes != int64(want.Len()) {
		t.Fatalf("stats: %+v", stats)
	}
}
