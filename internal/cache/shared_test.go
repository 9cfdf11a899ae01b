package cache

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"slimstore/internal/container"
)

// synthContainer builds an in-memory container of the given payload size,
// bypassing any store — the shared cache only sees opaque containers.
func synthContainer(id container.ID, size int) *container.Container {
	return &container.Container{
		Meta: container.Meta{ID: id, DataSize: uint32(size)},
		Data: make([]byte, size),
	}
}

func TestSharedSingleflightCollapsesConcurrentFetches(t *testing.T) {
	s := NewShared(1 << 20)
	const id = container.ID(7)
	const riders = 8

	var fetches int
	arrived := make(chan struct{}, riders)
	release := make(chan struct{})
	fetch := func() (*container.Container, error) {
		fetches++ // only the singleflight owner runs this; -race checks it
		<-release
		return synthContainer(id, 4096), nil
	}

	var wg sync.WaitGroup
	results := make([]FetchSource, riders)
	for i := 0; i < riders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arrived <- struct{}{}
			c, src, err := s.Fetch(id, fetch)
			if err != nil || c == nil {
				t.Errorf("rider %d: %v", i, err)
				return
			}
			results[i] = src
		}(i)
	}
	for i := 0; i < riders; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()

	if fetches != 1 {
		t.Fatalf("base fetch ran %d times, want 1", fetches)
	}
	var owners, joinersOrHits int
	for _, src := range results {
		if src == SrcFetched {
			owners++
		} else {
			joinersOrHits++
		}
	}
	if owners != 1 || joinersOrHits != riders-1 {
		t.Fatalf("got %d owners / %d riders, want 1 / %d (%v)", owners, joinersOrHits, riders-1, results)
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits+st.InflightJoins != riders-1 {
		t.Fatalf("stats %+v: want 1 miss and %d hits+joins", st, riders-1)
	}
}

func TestSharedCacheHitAvoidsRefetch(t *testing.T) {
	s := NewShared(1 << 20)
	const id = container.ID(3)
	var fetches int
	fetch := func() (*container.Container, error) {
		fetches++
		return synthContainer(id, 1024), nil
	}

	if _, src, err := s.Fetch(id, fetch); err != nil || src != SrcFetched {
		t.Fatalf("first fetch: src=%v err=%v", src, err)
	}
	if c, ok := s.Get(id); !ok || c == nil {
		t.Fatal("Get missed a resident container")
	}
	if _, src, err := s.Fetch(id, fetch); err != nil || src != SrcHit {
		t.Fatalf("second fetch: src=%v err=%v, want SrcHit", src, err)
	}
	if fetches != 1 {
		t.Fatalf("base fetch ran %d times, want 1", fetches)
	}
}

func TestSharedBudgetIsStrict(t *testing.T) {
	const budget = 64 << 10
	s := NewShared(budget)

	// A cold sweep of many 4 KiB containers: resident bytes must never
	// exceed the budget even though every fetch succeeds.
	for i := 1; i <= 64; i++ {
		id := container.ID(i)
		if _, _, err := s.Fetch(id, func() (*container.Container, error) {
			return synthContainer(id, 4096), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("a 256 KiB sweep through a 64 KiB cache must evict")
	}
}

// TestSharedEvictsLeastRecentlyUsed: a hit moves its entry ahead of older
// ones, so a sweep evicts the least recently used entry first; resident
// bytes never exceed the budget; and a container larger than the budget
// is served to its fetcher without being admitted.
func TestSharedEvictsLeastRecentlyUsed(t *testing.T) {
	const size, budget = 4 << 10, 4 * (4 << 10)
	s := NewShared(budget)
	fetch := func(id container.ID, n int) (*container.Container, FetchSource) {
		t.Helper()
		c, src, err := s.Fetch(id, func() (*container.Container, error) { return synthContainer(id, n), nil })
		if err != nil || c == nil || c.Meta.ID != id {
			t.Fatalf("fetch %d: c=%v err=%v", id, c, err)
		}
		if st := s.Stats(); st.Bytes > budget {
			t.Fatalf("after fetching %d: resident %d bytes exceeds budget %d", id, st.Bytes, budget)
		}
		return c, src
	}
	// resident looks at the map alone, so checking does not reorder the list.
	resident := func(ids ...container.ID) (in []container.ID) {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, id := range ids {
			if _, ok := s.entries[id]; ok {
				in = append(in, id)
			}
		}
		return in
	}

	for id := container.ID(1); id <= 4; id++ {
		fetch(id, size) // fills the budget exactly: 4 (front) 3 2 1 (tail)
	}
	if _, ok := s.Get(1); !ok { // 1 4 3 2
		t.Fatal("container 1 not resident with the budget just full")
	}
	fetch(5, size) // evicts 2, the least recently used
	if got, want := resident(1, 2, 3, 4, 5), []container.ID{1, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("after a hit on 1 and a fetch of 5, resident %v, want %v", got, want)
	}
	fetch(6, size) // evicts 3
	if got, want := resident(1, 3, 4, 5, 6), []container.ID{1, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("after a fetch of 6, resident %v, want %v", got, want)
	}

	before := s.Stats()
	if before.Evictions != 2 || before.Entries != 4 {
		t.Fatalf("stats %+v: want 2 evictions and 4 entries", before)
	}
	if c, src := fetch(9, budget+1); len(c.Data) != budget+1 || src != SrcFetched {
		t.Fatalf("oversized fetch: %d bytes, src=%v", len(c.Data), src)
	}
	if after := s.Stats(); len(resident(9)) != 0 || after.Bytes != before.Bytes || after.Evictions != before.Evictions {
		t.Fatalf("an oversized container was admitted or evicted others: %+v, then %+v", before, after)
	}
}

func TestSharedInvalidateDropsResidentAndPoisonsInflight(t *testing.T) {
	s := NewShared(1 << 20)

	// Resident entry invalidated → next fetch goes to OSS again.
	id := container.ID(5)
	var fetches int
	fetch := func() (*container.Container, error) {
		fetches++
		return synthContainer(id, 2048), nil
	}
	if _, _, err := s.Fetch(id, fetch); err != nil {
		t.Fatal(err)
	}
	s.Invalidate(id)
	if _, ok := s.Get(id); ok {
		t.Fatal("invalidated container still resident")
	}
	if _, src, err := s.Fetch(id, fetch); err != nil || src != SrcFetched {
		t.Fatalf("refetch after invalidate: src=%v err=%v", src, err)
	}
	if fetches != 2 {
		t.Fatalf("base fetch ran %d times, want 2", fetches)
	}

	// Invalidation racing an in-flight fetch: the owner still gets its
	// container (resolved under its restore pins), but it is not admitted.
	id2 := container.ID(6)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, _, err := s.Fetch(id2, func() (*container.Container, error) {
			close(started)
			<-release
			return synthContainer(id2, 2048), nil
		})
		if err != nil || c == nil {
			t.Errorf("poisoned fetch must still serve its owner: %v", err)
		}
	}()
	<-started
	s.Invalidate(id2)
	close(release)
	<-done
	if _, ok := s.Get(id2); ok {
		t.Fatal("container invalidated mid-flight was admitted")
	}
}

func TestSharedFetchErrorPropagatesAndRetries(t *testing.T) {
	s := NewShared(1 << 20)
	id := container.ID(11)
	boom := errors.New("oss unavailable")
	if _, _, err := s.Fetch(id, func() (*container.Container, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the fetch error", err)
	}
	// Errors are not cached: the next fetch runs again and can succeed.
	c, src, err := s.Fetch(id, func() (*container.Container, error) { return synthContainer(id, 512), nil })
	if err != nil || c == nil || src != SrcFetched {
		t.Fatalf("retry after error: c=%v src=%v err=%v", c, src, err)
	}
}

// TestSharedJoinerRetriesAfterOwnerFails: a caller waiting on a flight
// whose owner fails does not inherit the error; it fetches as owner with
// its own function, and the failed flight admits nothing.
func TestSharedJoinerRetriesAfterOwnerFails(t *testing.T) {
	s := NewShared(1 << 20)
	const id = container.ID(12)
	boom := errors.New("owner's read failed")
	started, release := make(chan struct{}), make(chan struct{})
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := s.Fetch(id, func() (*container.Container, error) {
			close(started)
			<-release
			return nil, boom
		})
		ownerErr <- err
	}()
	<-started

	type result struct {
		c, own *container.Container
		src    FetchSource
		err    error
		admits int64 // entries resident when the waiter's own fetch ran
	}
	waiter := make(chan result, 1)
	go func() {
		var r result
		r.c, r.src, r.err = s.Fetch(id, func() (*container.Container, error) {
			r.admits = s.Stats().Entries
			r.own = synthContainer(id, 512)
			return r.own, nil
		})
		waiter <- r
	}()
	waitForJoiner(t)
	close(release)

	if err := <-ownerErr; !errors.Is(err, boom) {
		t.Fatalf("owner: got %v, want its own fetch error", err)
	}
	r := <-waiter
	if r.err != nil || r.src != SrcFetched || r.own == nil || r.c != r.own {
		t.Fatalf("waiter: src=%v err=%v, want its own container as SrcFetched", r.src, r.err)
	}
	if r.admits != 0 {
		t.Fatalf("the failed flight admitted %d entries", r.admits)
	}
	if st := s.Stats(); st.Misses != 2 || st.InflightJoins != 0 {
		t.Fatalf("stats %+v: want 2 misses and 0 joins", st)
	}
}

// waitForJoiner returns once some goroutine is blocked in Shared.Fetch
// itself on a channel receive: a caller waiting for another's flight.
func waitForJoiner(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			head, frames, _ := strings.Cut(g, "\n")
			if strings.HasSuffix(head, "[chan receive]:") && strings.HasPrefix(frames, "slimstore/internal/cache.(*Shared).Fetch(") {
				return
			}
		}
	}
	t.Fatal("no caller joined the flight within 10 s")
}

// TestSharedWithPrefetcherAndTwoJobs composes the layers the engine
// stacks: per-job LAW prefetch workers on top of one node-wide shared
// cache. Two jobs restoring the same fragmented stream must together
// trigger at most one base fetch per unique container.
func TestSharedWithPrefetcherAndTwoJobs(t *testing.T) {
	repo, seq, want := fragmentedScenario(t)
	s := NewShared(1 << 30)

	baseMu := sync.Mutex{}
	baseFetches := make(map[container.ID]int)
	base := func(id container.ID) (*container.Container, error) {
		baseMu.Lock()
		baseFetches[id]++
		baseMu.Unlock()
		return repo.cs.Read(id)
	}

	runJob := func() ([]byte, Stats, error) {
		shared := func(id container.ID) (*container.Container, error) {
			c, _, err := s.Fetch(id, func() (*container.Container, error) { return base(id) })
			return c, err
		}
		pf := NewPrefetcher(shared, seq, 8)
		defer pf.Close()
		var out bytes.Buffer
		pol := NewFV(Config{MemBytes: 1 << 30, LAW: 64})
		st, err := pol.Restore(seq, pf.Fetch, func(d []byte) error { _, werr := out.Write(d); return werr })
		return out.Bytes(), st, err
	}

	var wg sync.WaitGroup
	outs := make([][]byte, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, errs[i] = runJob()
		}(i)
	}
	wg.Wait()
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !bytes.Equal(outs[i], want) {
			t.Fatalf("job %d restored wrong bytes", i)
		}
	}
	for id, n := range baseFetches {
		if n != 1 {
			t.Errorf("container %d fetched %d times from OSS, want 1", id, n)
		}
	}
}

// TestPrefetcherMidSequenceErrorShutsDownCleanly drives satellite (b):
// a fetch error in the middle of the sequence must surface to the
// consumer, and an immediate Close must join every worker and the feeder
// without deadlocking, leaving no goroutine still fetching.
func TestPrefetcherMidSequenceErrorShutsDownCleanly(t *testing.T) {
	repo, seq, _ := fragmentedScenario(t)
	boom := errors.New("injected mid-sequence failure")

	// Fail every fetch after the third distinct container.
	var mu sync.Mutex
	fetched := make(map[container.ID]bool)
	inflight := 0
	base := func(id container.ID) (*container.Container, error) {
		mu.Lock()
		inflight++
		fetched[id] = true
		fail := len(fetched) > 3
		mu.Unlock()
		defer func() { mu.Lock(); inflight--; mu.Unlock() }()
		if fail {
			return nil, boom
		}
		return repo.cs.Read(id)
	}

	pf := NewPrefetcher(base, seq, 6)
	var err error
	for i := range seq {
		if _, ferr := pf.Fetch(seq[i].Container); ferr != nil {
			err = ferr
			break
		}
	}
	if !errors.Is(err, boom) {
		t.Fatalf("mid-sequence error did not surface: %v", err)
	}
	pf.Close() // must not deadlock; joins workers AND the feeder
	mu.Lock()
	n := inflight
	mu.Unlock()
	if n != 0 {
		t.Fatalf("%d fetches still in flight after Close", n)
	}
}
