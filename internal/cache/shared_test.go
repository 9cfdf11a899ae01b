package cache

import (
	"bytes"
	"errors"
	"sync"
	"testing"

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
			ss := s.NewSession()
			defer ss.Close()
			arrived <- struct{}{}
			c, src, err := ss.Fetch(id, fetch)
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

	a := s.NewSession()
	if _, src, err := a.Fetch(id, fetch); err != nil || src != SrcFetched {
		t.Fatalf("first fetch: src=%v err=%v", src, err)
	}
	a.Close()

	b := s.NewSession()
	defer b.Close()
	if c, ok := b.Get(id); !ok || c == nil {
		t.Fatal("Get missed a resident container")
	}
	if _, src, err := b.Fetch(id, fetch); err != nil || src != SrcHit {
		t.Fatalf("second fetch: src=%v err=%v, want SrcHit", src, err)
	}
	if fetches != 1 {
		t.Fatalf("base fetch ran %d times, want 1", fetches)
	}
}

func TestSharedBudgetIsStrict(t *testing.T) {
	const budget = minSharedBytes // 64 KiB, probation 16 KiB
	s := NewShared(budget)
	ss := s.NewSession()

	// A cold sweep of many 4 KiB containers: resident bytes must never
	// exceed the budget even though every fetch succeeds.
	for i := 1; i <= 64; i++ {
		id := container.ID(i)
		if _, _, err := ss.Fetch(id, func() (*container.Container, error) {
			return synthContainer(id, 4096), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ss.Close()
	st := s.Stats()
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes exceeds budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Fatal("a 256 KiB sweep through a 64 KiB cache must evict")
	}
}

func TestSharedColdSweepCannotEvictProtectedWorkingSet(t *testing.T) {
	s := NewShared(minSharedBytes)
	warm := s.NewSession()

	// Job 1 establishes a working set and re-uses it → each re-use
	// promotes the entry out of probation into the protected segment.
	workingSet := []container.ID{100, 101, 102}
	for _, id := range workingSet {
		id := id
		if _, _, err := warm.Fetch(id, func() (*container.Container, error) {
			return synthContainer(id, 8192), nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, ok := warm.Get(id); !ok {
			t.Fatalf("container %d evicted before the sweep", id)
		}
	}
	warm.Close() // drop references: protection must come from the segment, not refs

	// Job 2 sweeps 128 cold containers through the cache.
	cold := s.NewSession()
	for i := 1; i <= 128; i++ {
		id := container.ID(i)
		if _, _, err := cold.Fetch(id, func() (*container.Container, error) {
			return synthContainer(id, 4096), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	cold.Close()

	check := s.NewSession()
	defer check.Close()
	for _, id := range workingSet {
		if _, ok := check.Get(id); !ok {
			t.Fatalf("cold sweep evicted protected container %d", id)
		}
	}
}

func TestSharedReferencedEntriesAreNotEvicted(t *testing.T) {
	s := NewShared(minSharedBytes) // probation budget 16 KiB
	holder := s.NewSession()

	// The holder pins one 12 KiB container (fits probation alone).
	pinned := container.ID(1)
	c1, _, err := holder.Fetch(pinned, func() (*container.Container, error) {
		return synthContainer(pinned, 12<<10), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Another job sweeps 12 KiB containers: they cannot fit next to the
	// pinned entry, must be rejected (never evict the referenced one).
	sweeper := s.NewSession()
	for i := 10; i < 20; i++ {
		id := container.ID(i)
		if _, _, err := sweeper.Fetch(id, func() (*container.Container, error) {
			return synthContainer(id, 12<<10), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	sweeper.Close()

	st := s.Stats()
	if st.Rejects == 0 {
		t.Fatalf("stats %+v: sweeps past a pinned entry must reject admissions", st)
	}
	if st.Bytes > minSharedBytes {
		t.Fatalf("resident %d bytes exceeds budget", st.Bytes)
	}
	if c, ok := holder.Get(pinned); !ok || c != c1 {
		t.Fatal("referenced container was evicted or replaced")
	}

	// After release, the space is reclaimable again.
	holder.Close()
	late := s.NewSession()
	defer late.Close()
	id := container.ID(99)
	if _, src, err := late.Fetch(id, func() (*container.Container, error) {
		return synthContainer(id, 12<<10), nil
	}); err != nil || src != SrcFetched {
		t.Fatalf("post-release fetch: src=%v err=%v", src, err)
	}
	if _, ok := late.Get(id); !ok {
		t.Fatal("post-release admission failed with free space available")
	}
}

func TestSharedInvalidateDropsResidentAndPoisonsInflight(t *testing.T) {
	s := NewShared(1 << 20)
	ss := s.NewSession()
	defer ss.Close()

	// Resident entry invalidated → next fetch goes to OSS again.
	id := container.ID(5)
	var fetches int
	fetch := func() (*container.Container, error) {
		fetches++
		return synthContainer(id, 2048), nil
	}
	if _, _, err := ss.Fetch(id, fetch); err != nil {
		t.Fatal(err)
	}
	s.Invalidate(id)
	if _, ok := ss.Get(id); ok {
		t.Fatal("invalidated container still resident")
	}
	if _, src, err := ss.Fetch(id, fetch); err != nil || src != SrcFetched {
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
		other := s.NewSession()
		defer other.Close()
		c, _, err := other.Fetch(id2, func() (*container.Container, error) {
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
	if _, ok := ss.Get(id2); ok {
		t.Fatal("container invalidated mid-flight was admitted")
	}
}

func TestSharedFetchErrorPropagatesAndRetries(t *testing.T) {
	s := NewShared(1 << 20)
	ss := s.NewSession()
	defer ss.Close()
	id := container.ID(11)
	boom := errors.New("oss unavailable")
	if _, _, err := ss.Fetch(id, func() (*container.Container, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the fetch error", err)
	}
	// Errors are not cached: the next fetch runs again and can succeed.
	c, src, err := ss.Fetch(id, func() (*container.Container, error) { return synthContainer(id, 512), nil })
	if err != nil || c == nil || src != SrcFetched {
		t.Fatalf("retry after error: c=%v src=%v err=%v", c, src, err)
	}
}

// TestSharedWithPrefetcherAndTwoJobs composes the layers the engine
// stacks: per-job LAW prefetch workers on top of per-job shared-cache
// sessions. Two jobs restoring the same fragmented stream must together
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
		ss := s.NewSession()
		defer ss.Close()
		shared := func(id container.ID) (*container.Container, error) {
			c, _, err := ss.Fetch(id, func() (*container.Container, error) { return base(id) })
			return c, err
		}
		pf := NewPrefetcher(shared, seq, 4, 8)
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

	pf := NewPrefetcher(base, seq, 3, 6)
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
