package lnode

import (
	"errors"
	"fmt"
	"io"
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
)

// RestoreStats reports one restore job.
type RestoreStats struct {
	FileID  string
	Version int

	Bytes     int64
	Cache     cache.Stats
	Redirects int // chunks relocated by reverse dedup / SCC (old versions)

	PrefetchThreads int
	// Prefetch reports LAW prefetcher effectiveness (reads dispatched/
	// consumed/direct/cancelled): a function of the request sequence and
	// PrefetchThreads, identical from run to run.
	Prefetch cache.PrefetchStats
	Account  *simclock.Account
	Elapsed  time.Duration
}

// ThroughputMBps is the restore throughput in MB/s of virtual time.
func (s *RestoreStats) ThroughputMBps() float64 {
	return simclock.ThroughputMBps(s.Bytes, s.Elapsed)
}

// Restore streams a backup version to w, using the configured cache
// policy and LAW-based prefetching (§V-A).
func (n *LNode) Restore(fileID string, version int, w io.Writer) (*RestoreStats, error) {
	return n.restore(fileID, version, 0, -1, w, n.repo.Config.VerifyRestore)
}

// Verify restores a version to a null sink with per-chunk fingerprint
// verification forced on, reporting integrity without materialising data.
func (n *LNode) Verify(fileID string, version int) (*RestoreStats, error) {
	return n.restore(fileID, version, 0, -1, io.Discard, true)
}

// RestoreRange streams bytes [off, off+length) of a version to w — partial
// recovery (a corrupted database page, a log tail) without paying for the
// full restore. Only the containers holding the overlapping chunks are
// read; length < 0 means to the end of the file.
func (n *LNode) RestoreRange(fileID string, version int, off, length int64, w io.Writer) (*RestoreStats, error) {
	if off < 0 {
		return nil, fmt.Errorf("lnode: restore range: negative offset %d", off)
	}
	return n.restore(fileID, version, off, length, w, n.repo.Config.VerifyRestore)
}

// restore is the one restore body: it streams bytes [off, off+length) of a
// version to w (length < 0 = to the end; a full restore is the window
// [0, size)), checking every chunk it reads against the recipe's
// fingerprint when verify is set.
func (n *LNode) restore(fileID string, version int, off, length int64, w io.Writer, verify bool) (*RestoreStats, error) {
	// No file lock: the recipe is one object and what it resolves to is
	// pinned, so the file's writers change no byte this reads (DESIGN.md §7).
	acct := simclock.NewAccount()
	cfg := &n.repo.Config
	recipes := n.repo.RecipesFor(acct)
	containers := n.repo.ContainersFor(acct)

	r, err := recipes.GetRecipe(fileID, version)
	if err != nil {
		return nil, err
	}
	total := r.LogicalBytes()
	if off > total {
		return nil, fmt.Errorf("lnode: restore range: offset %d beyond file size %d", off, total)
	}
	end := total
	if length >= 0 && off+length < end {
		end = off + length
	}
	stats := &RestoreStats{FileID: fileID, Version: version, Account: acct}

	threads := cfg.PrefetchThreads
	if off > 0 || end < total {
		// A windowed restore runs without the prefetcher and reports
		// strictly sequential virtual time: that is what the ranged-read
		// planner's cost model (cache.Plan) is calibrated against.
		threads = 0
	}
	stats.PrefetchThreads = threads
	// All container reads go through the node-level restore I/O layer:
	// shared cache + singleflight across jobs, cost-model ranged reads for
	// sparse need-sets, long reads cut to share the channels, at most
	// `threads` requests in flight, the longest waiting first (DESIGN.md §10).
	rio := newRestoreIO(n, containers, threads)
	fetch := cache.Fetcher(rio.fetch)
	var pf *cache.Prefetcher
	if threads > 0 {
		// LAW prefetching is policy-agnostic: the read-ahead order derives
		// from the pinned request sequence, not from the policy, so OSS
		// reads overlap the emit for every policy — the policy's own
		// fetches take the reads the window started. Its window is
		// 2 × threads containers, every read of it started at once.
		pf = cache.NewPrefetcher(fetch, nil, 2*threads)
		fetch = pf.Fetch
	}

	// Only the window's records are resolved and pinned, so a small range
	// of a large version reads the metadata of the window's containers,
	// not the version's; the need-set the read planner works from comes
	// from the same windowed sequence.
	recs, headTrim := windowRecords(r, off, end)
	res, release, err := n.pinSequence(containers, r, recs, acct, rio, pf)
	if err != nil {
		if pf != nil {
			pf.Close()
		}
		// A deletion that ran since the recipe was read leaves chunks lost:
		// that is a version deleted, if its catalog entry is gone.
		if _, ierr := recipes.GetInfo(fileID, version); errors.Is(ierr, oss.ErrNotFound) {
			err = fmt.Errorf("lnode: restore %s v%d: version deleted meanwhile: %w", fileID, version, ierr)
		}
		return nil, err
	}
	defer func() {
		// Every read has returned before a pin goes.
		if pf != nil {
			pf.Close()
		}
		release()
	}()
	seq := res.Seq
	stats.Redirects = res.Redirects
	rio.plan(seq, res.Metas)
	if pf != nil {
		pf.Follow(seq)
	}

	policy, err := cache.New(cfg.RestorePolicy, cache.Config{
		MemBytes:  cfg.CacheMemBytes,
		DiskBytes: cfg.CacheDiskBytes,
		LAW:       cfg.LAWChunks,
	})
	if err != nil {
		return nil, err
	}

	// The emit charges (and verifies) whole chunks; the window's head and
	// tail are trimmed beneath it, on the way to w.
	out := &windowWriter{w: w, skip: headTrim, left: end - off}
	cstats, err := policy.Restore(seq, fetch, n.restoreEmit(acct, out, seq, verify))
	if err != nil {
		return nil, fmt.Errorf("lnode: restore %s v%d [%d,%d): %w", fileID, version, off, end, err)
	}
	// Two-layer cache disk traffic costs local-disk time, not OSS time.
	acct.ChargeCPUBytes(simclock.PhaseOther,
		cstats.DiskHitBytes+cstats.DiskSwapBytes, cfg.Costs.DiskCachePerByte)

	stats.Bytes = out.written
	stats.Cache = cstats
	stats.Cache.ResolveMetaReads = res.MetaReads
	stats.Cache.ResolveMetaMemoHits = res.MemoHits
	rio.addTo(&stats.Cache)
	if pf != nil {
		stats.Prefetch = pf.Stats()
	}
	if threads > 0 {
		// LAW prefetching overlaps OSS reads with the restore pipeline
		// across `threads` parallel channels (§V-A, Table II).
		stats.Elapsed = acct.ElapsedOverlapped(threads)
	} else {
		stats.Elapsed = acct.ElapsedSequential()
	}
	return stats, nil
}

// windowRecords returns r's chunk records overlapping bytes [off, end), in
// logical order, and how many bytes of the first one precede off.
func windowRecords(r *recipe.Recipe, off, end int64) (recs []*recipe.ChunkRecord, headTrim int64) {
	var pos int64
	r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
		next := pos + int64(rec.Size)
		if next > off && pos < end {
			if len(recs) == 0 {
				headTrim = off - pos
			}
			recs = append(recs, rec)
		}
		pos = next
		return pos < end
	})
	return recs, headTrim
}

// windowWriter passes to w the `left` bytes that follow the first `skip`
// bytes written to it and drops the rest, counting what it passed on.
type windowWriter struct {
	w          io.Writer
	skip, left int64
	written    int64
}

func (t *windowWriter) Write(p []byte) (int, error) {
	d := p
	if t.skip > 0 {
		if t.skip >= int64(len(d)) {
			t.skip -= int64(len(d))
			return len(p), nil
		}
		d = d[t.skip:]
		t.skip = 0
	}
	if int64(len(d)) > t.left {
		d = d[:t.left]
	}
	if len(d) == 0 {
		return len(p), nil
	}
	nw, err := t.w.Write(d)
	t.left -= int64(nw)
	t.written += int64(nw)
	return len(p), err
}

// restoreEmit returns the restore emit: charge, optionally check the
// chunk against the recipe's fingerprint, write — one chunk at a time on
// the policy's goroutine, straight from the policy's buffer. Nothing runs
// behind it: the OSS reads are what a restore waits for and the LAW
// prefetcher already overlaps those, while the emit itself is memcpy-speed
// (DESIGN.md §14).
func (n *LNode) restoreEmit(acct *simclock.Account, w io.Writer, seq []cache.Request, verify bool) cache.Emit {
	perByte := n.repo.Config.Costs.RestorePerByte
	pos := 0
	return func(data []byte) error {
		acct.ChargeCPUBytes(simclock.PhaseOther, int64(len(data)), perByte)
		if verify {
			if got := n.repo.Fingerprint(acct, data); got != seq[pos].FP {
				return fmt.Errorf("verify: chunk %d corrupt (got %s, want %s)",
					pos, got.Short(), seq[pos].FP.Short())
			}
		}
		pos++
		_, err := w.Write(data)
		return err
	}
}

// RestoreHandoff drives payloads through the restore emit into a
// discarding sink — the throughput probe of the emit stage the benchmark
// replays. Returns the number of chunks written, -1 on a verify mismatch.
func (n *LNode) RestoreHandoff(chunks [][]byte, seq []cache.Request, verify bool) int {
	emit := n.restoreEmit(simclock.NewAccount(), io.Discard, seq, verify)
	for _, c := range chunks {
		if err := emit(c); err != nil {
			return -1
		}
	}
	return len(chunks)
}

// pinSequence resolves the restore sequence of recs — all of r's records,
// or a range restore's window of them — and read-pins every container it
// references, so no rewrite or drop of one lands before the reads. The set
// is the output of resolution, so the container write counter is sampled
// before the pass and checked once pinned: every write-side section bumps
// it before it releases, so an unchanged counter means the pass describes
// what is pinned. A moved one keeps the pins and re-resolves under them
// until two passes agree (at most 8), re-pinning only when the set moved.
// The resolution returned is the last pass's — its Metas are the states
// the restore I/O layer plans its ranged reads from — with MetaReads and
// MemoHits summed over every pass.
//
// With a prefetcher, the first pass starts reads before it probes the
// index (DESIGN.md §14): once the home metas land, the homes rio.early
// finds read whole are pinned and begun, while the probe and the target
// metas are read. Only while the counter has not moved: a write that
// ended before that pin leaves the pass to the path above, beginning
// nothing. Pinning the rest extends that pin without waiting (PinMore); if
// a writer is at one of its stripes, the begun reads are let finish, their
// pin goes, and the whole set is pinned as above.
func (n *LNode) pinSequence(containers *container.Store, r *recipe.Recipe, recs []*recipe.ChunkRecord, acct *simclock.Account, rio *restoreIO, pf *cache.Prefetcher) (*core.Resolution, func(), error) {
	locks := &n.repo.CLocks
	writes := locks.Writes()
	var (
		begun   []container.ID
		release = func() {}
		settled func([]cache.Request, map[container.ID]*container.Meta)
	)
	if pf != nil {
		settled = func(home []cache.Request, metas map[container.ID]*container.Meta) {
			ids, plans := rio.early(home, metas, 2*rio.threads)
			if len(ids) == 0 {
				return
			}
			unpin := locks.Pin(ids)
			if locks.Writes() != writes {
				unpin()
				return
			}
			begun = ids
			release = func() { pf.Settle(); unpin() }
			rio.begin(ids, plans)
			pf.Begin(ids)
		}
	}
	res, err := n.resolve(containers, r, recs, acct, settled)
	if err != nil {
		release()
		return nil, nil, err
	}
	ids := requestContainers(res.Seq)
	if begun == nil {
		release = locks.Pin(ids)
	} else if more, ok := locks.PinMore(begun, ids); ok {
		early := release
		release = func() { early(); more() }
	} else {
		release() // the begun reads return first
		rio.begin(begun, nil)
		release = locks.Pin(ids)
	}
	if locks.Writes() == writes {
		return res, release, nil
	}
	reads, hits := res.MetaReads, res.MemoHits
	const maxAttempts = 8
	for attempt := 0; ; attempt++ {
		again, err := n.resolve(containers, r, recs, acct, nil)
		if err != nil {
			release()
			return nil, nil, err
		}
		reads, hits = reads+again.MetaReads, hits+again.MemoHits
		if sameContainers(res.Seq, again.Seq) {
			again.MetaReads, again.MemoHits = reads, hits
			return again, release, nil
		}
		release()
		if attempt+1 >= maxAttempts {
			return nil, nil, fmt.Errorf("lnode: restore %s v%d: container set unstable after %d attempts",
				r.FileID, r.Version, maxAttempts)
		}
		res = again
		release = locks.Pin(requestContainers(res.Seq))
	}
}

func requestContainers(seq []cache.Request) []container.ID {
	ids := make([]container.ID, len(seq))
	for i, rq := range seq {
		ids[i] = rq.Container
	}
	return ids
}

func sameContainers(a, b []cache.Request) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Container != b[i].Container {
			return false
		}
	}
	return true
}

// resolve resolves recs (records of r, in logical order) into the restore
// request sequence through core.Repo.Resolve, each metadata wave metaWave
// wide, and fails on a lost chunk, naming it. It is also persist's check
// that a version names no lost container.
//
// Its metas live for ONE pass only: when pinSequence re-resolves, it is to
// observe a write that slid in, and a memo surviving between the passes
// would blind that revalidation.
func (n *LNode) resolve(containers *container.Store, r *recipe.Recipe, recs []*recipe.ChunkRecord, acct *simclock.Account,
	settled func([]cache.Request, map[container.ID]*container.Meta)) (*core.Resolution, error) {
	res, err := n.repo.Resolve(containers, recs, metaWave, acct, settled)
	if err != nil {
		return nil, fmt.Errorf("lnode: resolve %s v%d: %w", r.FileID, r.Version, err)
	}
	for i, q := range res.Seq {
		if q.Container != container.Invalid {
			continue
		}
		rec := recs[i]
		if res.Metas[rec.Container] == nil {
			return nil, fmt.Errorf("lnode: chunk %s of %s v%d lost with container %s",
				rec.FP.Short(), r.FileID, r.Version, rec.Container)
		}
		return nil, fmt.Errorf("lnode: chunk %s of %s v%d lost (container %s)",
			rec.FP.Short(), r.FileID, r.Version, rec.Container)
	}
	return res, nil
}
