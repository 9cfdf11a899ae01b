// Package lnode implements SLIMSTORE's stateless online processing node
// (paper §III-B, §IV, §V-A): fast online deduplication exploiting
// similarity and logical locality, the two history-aware accelerations
// (skip chunking and chunk merging / SuperChunking), and online restore
// with the full-vision cache and LAW-based prefetching.
//
// An L-node holds no durable state: everything a job needs — the recipe
// index of the detected base file, similar segment recipes, container
// metadata — is fetched from the storage layer during the job, so L-nodes
// scale out freely.
package lnode

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/fingerprint"
	"slimstore/internal/oss"
	"slimstore/internal/pipe"
	"slimstore/internal/recipe"
	"slimstore/internal/simclock"
	"slimstore/internal/simindex"
)

// LNode executes backup and restore jobs against a shared Repo.
type LNode struct {
	repo *core.Repo
	name string

	runs sync.Pool // *ingestRun: recycled ingest ring runs (ingest.go)

	// headBytes is the head base detection samples: the constant, except
	// where a test puts the seam between the probe's cuts and STEP 2's.
	headBytes int

	// wrapCutter, set by tests only, wraps every cutter the node builds, so
	// a test can see what is offered to Cut.
	wrapCutter func(chunker.Cutter) chunker.Cutter
}

// New returns an L-node. name is informational (logs, stats).
func New(repo *core.Repo, name string) *LNode {
	return &LNode{repo: repo, name: name, headBytes: headBytes}
}

// Name returns the node name.
func (n *LNode) Name() string { return n.name }

// Close releases nothing: no goroutine of an L-node outlives the call
// that started it, and its pooled memory is the garbage collector's.
func (n *LNode) Close() {}

// newCutter constructs the configured chunker.
func (n *LNode) newCutter() chunker.Cutter {
	if n.wrapCutter != nil {
		return n.wrapCutter(n.repo.Cutter())
	}
	return n.repo.Cutter()
}

// BackupStats reports one backup job.
type BackupStats struct {
	FileID  string
	Version int

	LogicalBytes   int64 // input size
	DuplicateBytes int64 // bytes eliminated as duplicates
	StoredBytes    int64 // chunk payload bytes written to containers

	NumChunks     int // chunk records in the new recipe
	NumDuplicates int

	// History-aware skip chunking (§IV-B).
	SkipHits, SkipMisses int
	// SuperChunking (§IV-C): matches of existing superchunks and newly
	// merged ones.
	SuperHits, SuperMisses, NewSuperchunks int

	SegmentsFetched int
	// Base file detection (STEP 1): "name", "similarity", or "none".
	BaseBy      string
	BaseFile    string
	BaseVersion int

	NewContainers    []container.ID
	SparseContainers []container.ID // detected for G-node's SCC (§V-B)

	Account *simclock.Account
	Elapsed time.Duration // virtual time, upload overlapped with compute
}

// DedupRatio is eliminated bytes over input bytes.
func (s *BackupStats) DedupRatio() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return float64(s.DuplicateBytes) / float64(s.LogicalBytes)
}

// ThroughputMBps is the deduplication throughput in MB/s of virtual time.
func (s *BackupStats) ThroughputMBps() float64 {
	return simclock.ThroughputMBps(s.LogicalBytes, s.Elapsed)
}

// dedupEntry is one historical chunk record in the dedup cache, with
// enough context to find its successor for skip chunking.
type dedupEntry struct {
	rec   recipe.ChunkRecord
	segNo int
	idx   int
}

// backupJob is the per-job state of the online dedup pipeline.
type backupJob struct {
	node *LNode
	cfg  *core.Config
	acct *simclock.Account

	recipes    *recipe.Store
	containers *container.Store
	builder    *container.Builder
	pool       *container.PackPool // nil when packing synchronously
	sampler    fingerprint.Sampler

	// Base file (STEP 1 result), or the probe's cuts when there is none.
	baseReader *recipe.SegmentReader
	baseIndex  *recipe.Index
	head       headCuts

	// Dedup cache (STEP 2): prefetched segment recipes, bounded by
	// Config.DedupCacheSegments with FIFO eviction.
	dedupCache   map[fingerprint.FP]dedupEntry
	superByFirst map[fingerprint.FP]dedupEntry
	fetchedSegs  map[int]*recipe.Segment
	fetchOrder   []int

	// Segment read-ahead (fetchSegment): base segment reads started ahead
	// of their demand, by segment number, at most aheadDepth of them.
	ahead      *pipe.Ahead[int, *recipe.Segment]
	aheadDepth int

	stats BackupStats

	// Output assembly.
	segments   []recipe.Segment
	curSegment []recipe.ChunkRecord
	// Pending run of merge-eligible records (history-aware chunk merging).
	pending   []pendingRec
	data      []byte
	sampled   []fingerprint.FP // sampled fingerprints for the sketch
	lastMatch *dedupEntry
}

type pendingRec struct {
	rec recipe.ChunkRecord
	off int64
}

// headCuts is what the head probe of a job that found no base hands STEP 2,
// so the head is cut and fingerprinted once (DESIGN.md §13): the leading
// chunks of the version, in order from offset 0, whose boundaries are the
// ones cutting the whole version would produce, their fingerprints, and the
// offset they end at, where STEP 2 resumes cutting. Zero when the job has a
// base.
type headCuts struct {
	chunks []chunker.Chunk
	fps    []fingerprint.FP
	end    int64
}

// packWorkers is how many background workers seal and upload a job's
// filled containers while the dedup loop continues (§IV-A's overlap of
// computation and multipart upload), with at most 3 × packWorkers ×
// ContainerCapacity payload bytes ahead of them, so ingest cannot outrun
// the write path. Also the width of persist's container-metadata wave.
const packWorkers = 4

// newBackupJob builds the per-job pipeline state shared by Backup and
// BackupStream. The caller must `defer j.join()`.
func (n *LNode) newBackupJob(data []byte) *backupJob {
	acct := simclock.NewAccount()
	cfg := &n.repo.Config
	j := &backupJob{
		node:         n,
		cfg:          cfg,
		acct:         acct,
		recipes:      n.repo.RecipesFor(acct),
		containers:   n.repo.ContainersFor(acct),
		sampler:      fingerprint.NewSampler(cfg.SampleRatio),
		dedupCache:   make(map[fingerprint.FP]dedupEntry),
		superByFirst: make(map[fingerprint.FP]dedupEntry),
		fetchedSegs:  make(map[int]*recipe.Segment),
		aheadDepth:   segmentReadAhead,
		data:         data,
	}
	// One wider than the window: a demanded read started by an earlier
	// window is in flight beside the whole of its own.
	j.ahead = pipe.NewAhead(segmentReadAhead+1, func(segNo int) (*recipe.Segment, error) {
		return j.baseReader.Fetch(segNo)
	})
	j.pool = container.NewPackPoolBudget(j.containers, packWorkers, 3*packWorkers*int64(cfg.ContainerCapacity))
	j.builder = container.NewBuilderAsync(j.containers, j.pool)
	j.stats.Account = acct
	return j
}

// join waits out the segment reads still in flight (read ahead but never
// demanded) and, on error paths, the pack workers, so no goroutine outlives
// the job. persist() owns the success-path pool Close and nils j.pool.
func (j *backupJob) join() {
	j.ahead.Join()
	if j.pool != nil {
		//slimlint:ignore errdiscipline this drain only runs when the job is already returning the original error; persist() owns the success-path Close and checks it
		j.pool.Close()
		j.pool = nil
	}
}

// finish computes virtual elapsed time from the account.
func (j *backupJob) finish() *BackupStats {
	// The backup pipeline overlaps three resources (paper §IV-A/Fig 2):
	// segment-recipe prefetching (OSS reads), computation, and multipart
	// container upload (OSS writes). Fig 2's bottleneck flips from network
	// (version 0 uploads everything) to CPU (later versions upload little).
	j.stats.Elapsed = j.acct.ElapsedPipelined()
	return &j.stats
}

// Backup deduplicates one input file version and persists containers,
// recipe, recipe index, similarity sketch, and catalog entry.
func (n *LNode) Backup(fileID string, data []byte) (*BackupStats, error) {
	return n.backup(fileID, data, data, true, (*backupJob).dedupe)
}

// BackupStream deduplicates one input version read from r. Only the head
// base detection samples is read before the job knows whether it has a
// base. Without one — a first version, a similarity miss — no cut depends
// on history under any configuration, so the version streams through the
// ring and is never materialised: resident memory stays O(pipeline window)
// — head probe + ring slabs + pack budget — regardless of input size. With
// a base, skip chunking and chunk merging need random access to the whole
// version, so with either on the rest of the stream is buffered behind the
// head; with both off a version with history streams too.
func (n *LNode) BackupStream(fileID string, rd io.Reader) (*BackupStats, error) {
	// One byte past what base detection samples, so that a version of
	// exactly the head size is known to end there.
	head, eof, err := readUpTo(rd, nil, n.headBytes+1)
	if err != nil {
		return nil, fmt.Errorf("lnode: read stream head: %w", err)
	}
	return n.backup(fileID, nil, head, eof, func(j *backupJob) error {
		if j.baseIndex == nil || !(j.cfg.SkipChunking || j.cfg.ChunkMerging) {
			return j.dedupeStream(head, eof, rd)
		}
		j.data = head
		if !eof {
			var err error
			if j.data, _, err = readUpTo(rd, head, math.MaxInt); err != nil {
				return fmt.Errorf("lnode: read stream: %w", err)
			}
		}
		j.stats.LogicalBytes = int64(len(j.data))
		return j.dedupeHistoryAware()
	})
}

// readUpTo appends rd to buf until buf holds limit bytes or rd ends (eof),
// doubling the buffer as it fills — a short input costs a short buffer —
// and going straight to limit once the doubling after next would pass it.
func readUpTo(rd io.Reader, buf []byte, limit int) (_ []byte, eof bool, err error) {
	for len(buf) < limit {
		if len(buf) == cap(buf) {
			grow := max(2*cap(buf), 64<<10)
			if grow > limit/2 {
				grow = limit
			}
			buf = append(make([]byte, 0, grow), buf...)
		}
		n, err := rd.Read(buf[len(buf):min(cap(buf), limit)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true, nil
		}
		if err != nil {
			return buf, false, err
		}
	}
	return buf, false, nil
}

// backup is the job body shared by Backup and BackupStream. data is the
// whole version when it is in memory (nil when streaming), head a prefix
// of it for base detection to sample, eof whether the version ends where
// head does, step2 the dedupe stage to run.
func (n *LNode) backup(fileID string, data, head []byte, eof bool, step2 func(*backupJob) error) (*BackupStats, error) {
	if fileID == "" {
		return nil, fmt.Errorf("lnode: empty file ID")
	}
	// Exclusive file lock: concurrent backups of the same file would race on
	// version allocation, and restores must see a complete version chain.
	// Different files proceed in parallel (striped by file ID).
	n.repo.Files.Lock(fileID)
	defer n.repo.Files.Unlock(fileID)

	j := n.newBackupJob(data)
	defer j.join()
	j.stats.FileID = fileID
	j.stats.LogicalBytes = int64(len(data))

	// STEP 1: detect the latest historical version by name, falling back
	// to the similar file index.
	if err := j.detectBase(fileID, head, eof); err != nil {
		return nil, err
	}

	// STEP 2: chunk, fingerprint, and deduplicate against prefetched
	// similar segment recipes.
	if err := step2(j); err != nil {
		return nil, err
	}

	// STEP 3: persist containers, recipe, recipe index, sketch, catalog.
	if err := j.persist(fileID); err != nil {
		return nil, err
	}
	return j.finish(), nil
}

// detectBase implements STEP 1 of §IV-A. head is a prefix of the version
// and eof says the version ends where head does.
func (j *backupJob) detectBase(fileID string, head []byte, eof bool) error {
	latest, ok, err := j.recipes.LatestVersion(fileID)
	if err != nil {
		return fmt.Errorf("lnode: detect base: %w", err)
	}
	if ok {
		j.stats.Version = latest + 1
		j.stats.BaseBy = "name"
		j.stats.BaseFile = fileID
		j.stats.BaseVersion = latest
		return j.openBase(fileID, latest)
	}
	j.stats.Version = 0
	j.stats.BaseBy = "none"

	// Name miss: sample the header chunks and query the similar file
	// index (large files cannot be fully chunked in memory first, so only
	// the head is sampled — §IV-A).
	if hb := j.node.headBytes; len(head) > hb {
		head, eof = head[:hb], false
	}
	cutter := j.node.newCutter()
	chunks := chunker.SplitAll(head, cutter) // probe pass: not charged as chunking
	fps := hashAll(hashWorkers, j.cfg.FingerprintAlg, chunks)
	// Unless the query below finds a base, STEP 2 starts from these cuts
	// instead of making them again. It may take only those that cutting the
	// whole version would also make — the ones whose lookahead reached the
	// cutter's maximum inside the head, or all of them when the head is the
	// version (produceStream's rule) — and resumes after the last it took.
	keep := len(chunks)
	if !eof {
		reach := int64(len(head) - cutter.Params().Max)
		keep = sort.Search(len(chunks), func(i int) bool { return chunks[i].Offset > reach })
	}
	j.head = headCuts{chunks: chunks[:keep], fps: fps[:keep], end: int64(len(head))}
	if keep < len(chunks) {
		j.head.end = chunks[keep].Offset
	}

	var sampled []fingerprint.FP
	for _, fp := range fps {
		if j.sampler.Sample(fp) {
			sampled = append(sampled, fp)
		}
	}
	j.acct.ChargeCPUBytes(simclock.PhaseOther, int64(len(head)), j.cfg.Costs.OtherPerByte)
	if len(sampled) == 0 {
		return nil
	}
	m, found, err := j.node.repo.SimIndex.Query(simindex.SketchOf(sampled, simindex.DefaultSketchSize), j.cfg.SimilarityMinScore)
	if err != nil {
		return err
	}
	j.acct.ChargeCPU(simclock.PhaseIndexQuery, j.cfg.Costs.IndexLookup)
	if !found {
		return nil
	}
	if err := j.openBase(m.FileID, m.Version); err != nil {
		if !errors.Is(err, oss.ErrNotFound) {
			return err
		}
		// A sketch without its recipe objects is what a backup that died
		// inside its commit wave leaves behind (persist): not a base.
		return nil
	}
	// A job with history cuts from byte 0: its cut points may follow the
	// base's (skip chunking, superchunks), not the probe's.
	j.head = headCuts{}
	j.stats.BaseBy = "similarity"
	j.stats.BaseFile = m.FileID
	j.stats.BaseVersion = m.Version
	return nil
}

// wave issues independent storage round trips together and waits for all
// of them, returning the first error.
func wave(ops ...func() error) error {
	return pipe.FanOut(len(ops), len(ops), func(i int) error { return ops[i]() })
}

// openBase fetches the base version's recipe index and segment directory
// in one wave: two objects, neither needed to find the other. The job has
// a base only if both arrive.
func (j *backupJob) openBase(fileID string, version int) error {
	var idx *recipe.Index
	var rd *recipe.SegmentReader
	if err := wave(func() (err error) {
		if idx, err = j.recipes.GetIndex(fileID, version); err != nil {
			return fmt.Errorf("lnode: fetch recipe index: %w", err)
		}
		return nil
	}, func() (err error) {
		if rd, err = j.recipes.OpenSegments(fileID, version); err != nil {
			return fmt.Errorf("lnode: open base segments: %w", err)
		}
		return nil
	}); err != nil {
		return err
	}
	j.baseIndex, j.baseReader = idx, rd
	return nil
}

// segmentReadAhead is how many base segments past a demanded one
// fetchSegment keeps reading: enough to hide a segment's round trip behind
// the chunking and hashing of the segments before it (versions of a file
// demand their base's segments mostly in order), small enough that a
// demand sequence that jumps wastes a few reads, not a recipe's worth.
const segmentReadAhead = 4

// fetchSegment prefetches one similar segment recipe into the dedup
// cache, evicting the oldest segment when the cache is full, and starts
// reading the aheadDepth segments after it, so the next demands find their
// round trip already paid (§IV-A's overlap of recipe reads and
// computation). Only the read and the decode happen early: a segment
// enters the dedup cache, evicts another, counts as fetched and is charged
// its inserts when it is demanded, here — so verdicts, cut points and
// every counter are what a strictly on-demand reader produces. Which
// reads are issued depends on the demand sequence alone, never on timing:
// the window after a demand for k is (k, k+aheadDepth], reads outside it
// are dropped (join still waits for them), and a dropped or failed read
// matters only if its segment is demanded.
func (j *backupJob) fetchSegment(segNo int) error {
	if _, done := j.fetchedSegs[segNo]; done {
		return nil
	}
	last := min(segNo+j.aheadDepth, j.baseReader.NumSegments()-1)
	j.ahead.Forget(func(s int) bool { return s >= segNo && s <= last })
	for s := segNo + 1; s <= last; s++ {
		if j.fetchedSegs[s] == nil {
			j.ahead.Start(s)
		}
	}
	seg, _, err := j.ahead.Take(segNo)
	if err != nil {
		return fmt.Errorf("lnode: prefetch segment %d: %w", segNo, err)
	}
	for len(j.fetchedSegs) >= j.cfg.DedupCacheSegments && len(j.fetchOrder) > 0 {
		j.evictSegment(j.fetchOrder[0])
		j.fetchOrder = j.fetchOrder[1:]
	}
	j.fetchedSegs[segNo] = seg
	j.fetchOrder = append(j.fetchOrder, segNo)
	j.stats.SegmentsFetched++
	for i := range seg.Records {
		rec := &seg.Records[i]
		e := dedupEntry{rec: *rec, segNo: segNo, idx: i}
		if _, dup := j.dedupCache[rec.FP]; !dup {
			j.dedupCache[rec.FP] = e
		}
		if rec.Super {
			if _, dup := j.superByFirst[rec.FirstChunk]; !dup {
				j.superByFirst[rec.FirstChunk] = e
			}
		}
		j.acct.ChargeCPU(simclock.PhaseIndexQuery, j.cfg.Costs.IndexInsert)
	}
	return nil
}

// evictSegment drops one prefetched segment and its cache entries.
func (j *backupJob) evictSegment(segNo int) {
	seg := j.fetchedSegs[segNo]
	if seg == nil {
		return
	}
	delete(j.fetchedSegs, segNo)
	for i := range seg.Records {
		rec := &seg.Records[i]
		if e, ok := j.dedupCache[rec.FP]; ok && e.segNo == segNo {
			delete(j.dedupCache, rec.FP)
		}
		if rec.Super {
			if e, ok := j.superByFirst[rec.FirstChunk]; ok && e.segNo == segNo {
				delete(j.superByFirst, rec.FirstChunk)
			}
		}
	}
	if j.lastMatch != nil && j.lastMatch.segNo == segNo {
		j.lastMatch = nil
	}
}

// successor returns the historical record following e (crossing into the
// next segment only if it is already in the dedup cache).
func (j *backupJob) successor(e *dedupEntry) (dedupEntry, bool) {
	seg := j.fetchedSegs[e.segNo]
	if seg == nil {
		return dedupEntry{}, false
	}
	if e.idx+1 < len(seg.Records) {
		return dedupEntry{rec: seg.Records[e.idx+1], segNo: e.segNo, idx: e.idx + 1}, true
	}
	next := j.fetchedSegs[e.segNo+1]
	if next == nil || len(next.Records) == 0 {
		return dedupEntry{}, false
	}
	return dedupEntry{rec: next.Records[0], segNo: e.segNo + 1, idx: 0}, true
}

// lookup is the one dedup probe of STEP 2: the job's dedup cache first,
// then the base version's recipe index, where a sample match prefetches
// the whole similar segment recipe (logical locality). Sampling bounds
// the index size, not the probe cost — the index is already in L-node
// memory for the duration of the job, so every miss probes it.
func (j *backupJob) lookup(fp fingerprint.FP) (dedupEntry, bool, error) {
	j.acct.ChargeCPU(simclock.PhaseIndexQuery, j.cfg.Costs.IndexLookup)
	e, hit := j.dedupCache[fp]
	if !hit && j.baseIndex != nil {
		if segNo, found := j.baseIndex.Samples[fp]; found {
			if err := j.fetchSegment(int(segNo)); err != nil {
				return dedupEntry{}, false, err
			}
			e, hit = j.dedupCache[fp]
		}
	}
	return e, hit, nil
}

// dedupe implements STEP 2 for an in-memory version. The one thing that
// decides its shape is whether cut points depend on dedup verdicts: skip
// chunking and chunk merging cut at sizes taken from the matched history
// (chunker.Stream.SkipCut / Rewind), which serialises cut, hash and probe
// by construction. Without them boundaries are decided by content alone,
// so chunking and fingerprinting run ahead of the probes on the ring
// (ingest.go).
func (j *backupJob) dedupe() error {
	if j.cfg.SkipChunking || j.cfg.ChunkMerging {
		return j.dedupeHistoryAware()
	}
	r := j.node.newIngestRun()
	go r.produceBuffer(j.data, j.head)
	return j.consumeRing(r)
}

// dedupeHistoryAware is the main chunk loop with history-aware skip
// chunking and SuperChunking. With both switched off it is the plain
// serial chunk→hash→probe loop the ring is twin-tested against.
func (j *backupJob) dedupeHistoryAware() error {
	cutter := j.node.newCutter()
	stream := chunker.NewStream(j.data, cutter, j.acct, j.cfg.Costs)

	// The head probe's cuts (a job without a base only, so every probe
	// below misses): charged what Next and Fingerprint charge per chunk.
	cutCost, hashCost := cutter.PerByteCost(j.cfg.Costs), j.cfg.FingerprintPerByte()
	for i, ch := range j.head.chunks {
		j.acct.ChargeCPUBytes(simclock.PhaseChunking, int64(ch.Size()), cutCost)
		j.acct.ChargeCPUBytes(simclock.PhaseFingerprint, int64(ch.Size()), hashCost)
		if err := j.dedupeChunk(j.head.fps[i], ch); err != nil {
			return err
		}
	}
	stream.StartAt(int(j.head.end))

	for !stream.Done() {
		// History-aware skip chunking (§IV-B): after a confirmed
		// duplicate, try cutting the historical successor's size directly
		// and verifying by fingerprint comparison alone.
		if j.cfg.SkipChunking && j.lastMatch != nil {
			next, ok := j.successor(j.lastMatch)
			if ok && (!next.rec.Super || j.cfg.ChunkMerging) {
				if ch, cut := stream.SkipCut(int(next.rec.Size)); cut {
					fp := j.node.repo.Fingerprint(j.acct, ch.Data)
					if fp == next.rec.FP {
						if next.rec.Super {
							j.stats.SuperHits++
						} else {
							j.stats.SkipHits++
						}
						if err := j.emitDuplicate(next, ch); err != nil {
							return err
						}
						continue
					}
					stream.Rewind(ch.Offset)
					j.stats.SkipMisses++
				}
			}
			j.lastMatch = nil
		}

		// Regular CDC path.
		ch, ok := stream.Next()
		if !ok {
			break
		}
		fp := j.node.repo.Fingerprint(j.acct, ch.Data)
		e, hit, err := j.lookup(fp)
		if err != nil {
			return err
		}
		if hit {
			if err := j.emitDuplicate(e, ch); err != nil {
				return err
			}
			continue
		}

		// SuperChunking (Algorithm 1): the chunk may be the first chunk
		// of a historical superchunk.
		if j.cfg.ChunkMerging {
			if super, ok := j.superByFirst[fp]; ok && int(super.rec.Size) > ch.Size() {
				ext, cut := stream.SkipCut(int(super.rec.Size) - ch.Size())
				if cut {
					scData := j.data[ch.Offset : ch.Offset+int64(super.rec.Size)]
					scFP := j.node.repo.Fingerprint(j.acct, scData)
					if scFP == super.rec.FP {
						j.stats.SuperHits++
						if err := j.emitDuplicate(super, chunker.Chunk{Offset: ch.Offset, Data: scData}); err != nil {
							return err
						}
						continue
					}
					stream.Rewind(ext.Offset)
					j.stats.SuperMisses++
					// The paper marks the small chunk duplicate here
					// (Algorithm 1 line 10); our containers address whole
					// chunks only, so the chunk is stored unique instead —
					// a slightly larger ratio loss on superchunk changes.
				}
			}
		}

		if err := j.emitUnique(fp, ch); err != nil {
			return err
		}
	}
	return j.flushPending()
}

// dedupeChunk probes one content-defined chunk and records it as a
// duplicate or stores it as unique.
func (j *backupJob) dedupeChunk(fp fingerprint.FP, ch chunker.Chunk) error {
	e, hit, err := j.lookup(fp)
	if err != nil {
		return err
	}
	if hit {
		return j.emitDuplicate(e, ch)
	}
	return j.emitUnique(fp, ch)
}

// emitDuplicate records a confirmed duplicate chunk.
func (j *backupJob) emitDuplicate(e dedupEntry, ch chunker.Chunk) error {
	rec := e.rec
	rec.DuplicateTimes++
	j.stats.NumDuplicates++
	j.stats.DuplicateBytes += int64(ch.Size())
	j.lastMatch = &e
	return j.appendRecord(rec, ch.Offset)
}

// emitUnique stores a new chunk and records it.
func (j *backupJob) emitUnique(fp fingerprint.FP, ch chunker.Chunk) error {
	id, err := j.builder.Add(fp, ch.Data)
	if err != nil {
		return fmt.Errorf("lnode: store chunk: %w", err)
	}
	j.stats.StoredBytes += int64(ch.Size())
	j.lastMatch = nil
	return j.appendRecord(recipe.ChunkRecord{
		FP:        fp,
		Container: id,
		Size:      uint32(ch.Size()),
	}, ch.Offset)
}

// appendRecord feeds the history-aware chunk-merging stage (§IV-C):
// consecutive duplicate records whose duplicateTimes reached the merge
// threshold accumulate into a pending run that becomes a superchunk.
func (j *backupJob) appendRecord(rec recipe.ChunkRecord, off int64) error {
	mergeable := j.cfg.ChunkMerging &&
		!rec.Super &&
		rec.DuplicateTimes >= uint32(j.cfg.MergeThreshold) &&
		rec.DuplicateTimes > 0
	if mergeable {
		// Cap the run so superchunks stay within MaxSuperChunkBytes.
		if len(j.pending) > 0 {
			runBytes := int64(0)
			for i := range j.pending {
				runBytes += int64(j.pending[i].rec.Size)
			}
			if runBytes+int64(rec.Size) > int64(j.cfg.MaxSuperChunkBytes) {
				if err := j.mergePendingRun(); err != nil {
					return err
				}
			}
		}
		j.pending = append(j.pending, pendingRec{rec: rec, off: off})
		return nil
	}
	if err := j.mergePendingRun(); err != nil {
		return err
	}
	j.commitRecord(rec)
	return nil
}

// mergePendingRun converts the pending run into a superchunk (if it has at
// least two chunks) or commits its records unchanged.
func (j *backupJob) mergePendingRun() error {
	defer func() { j.pending = j.pending[:0] }()
	if len(j.pending) == 0 {
		return nil
	}
	if len(j.pending) < 2 {
		for i := range j.pending {
			j.commitRecord(j.pending[i].rec)
		}
		return nil
	}
	start := j.pending[0].off
	var total int64
	minDup := j.pending[0].rec.DuplicateTimes
	for i := range j.pending {
		total += int64(j.pending[i].rec.Size)
		if d := j.pending[i].rec.DuplicateTimes; d < minDup {
			minDup = d
		}
	}
	scData := j.data[start : start+total]
	scFP := j.node.repo.Fingerprint(j.acct, scData)
	// The merged blob must be stored: no existing container holds it
	// contiguously. This one-time write is the Fig 7 version-6 dip and
	// the source of the small deduplication-ratio loss.
	id, err := j.builder.Add(scFP, scData)
	if err != nil {
		// Add fails when sealing the previous container fails, and earlier
		// records of this version already reference that container, so the
		// job cannot carry on with the unmerged records.
		return fmt.Errorf("lnode: store superchunk: %w", err)
	}
	j.stats.StoredBytes += total
	j.stats.NewSuperchunks++
	j.commitRecord(recipe.ChunkRecord{
		FP:             scFP,
		Container:      id,
		Size:           uint32(total),
		DuplicateTimes: minDup,
		Super:          true,
		FirstChunk:     j.pending[0].rec.FP,
	})
	return nil
}

// commitRecord adds a finalized record to the current segment.
func (j *backupJob) commitRecord(rec recipe.ChunkRecord) {
	j.stats.NumChunks++
	j.acct.ChargeCPU(simclock.PhaseOther, j.cfg.Costs.RecipeAppend)
	if len(j.curSegment) == 0 || j.sampler.Sample(rec.FP) {
		j.sampled = append(j.sampled, rec.FP)
	}
	j.curSegment = append(j.curSegment, rec)
	if len(j.curSegment) >= j.cfg.SegmentChunks {
		j.segments = append(j.segments, recipe.Segment{Records: j.curSegment})
		j.curSegment = nil
	}
}

func (j *backupJob) flushPending() error {
	if err := j.mergePendingRun(); err != nil {
		return err
	}
	if len(j.curSegment) > 0 {
		j.segments = append(j.segments, recipe.Segment{Records: j.curSegment})
		j.curSegment = nil
	}
	return nil
}

// persist implements STEP 3 plus the bookkeeping G-node depends on:
// sparse-container detection and the version-collection mark phase. After
// the container durability barrier it is three round trips deep: one wave
// (recipe, index and sketch out; previous catalog entry and container
// metadata in), the previous version's catalog entry if the mark phase
// found garbage, and the new version's catalog entry — last, because it is
// the commit point (DESIGN.md §6, §13).
func (j *backupJob) persist(fileID string) error {
	if err := j.builder.Flush(); err != nil {
		return fmt.Errorf("lnode: flush containers: %w", err)
	}
	// Barrier: every container must be durable before the recipe that
	// references it lands (and before sparse detection reads metas back).
	pool := j.pool
	j.pool = nil
	if err := pool.Close(); err != nil {
		return fmt.Errorf("lnode: pack containers: %w", err)
	}

	r := &recipe.Recipe{FileID: fileID, Version: j.stats.Version, Segments: j.segments}

	// Containers referenced by this version.
	refs := make(map[container.ID]int)
	r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
		refs[rec.Container]++
		return true
	})
	var refList []container.ID
	for id := range refs {
		refList = append(refList, id)
	}
	sort.Slice(refList, func(a, b int) bool { return refList[a] < refList[b] })

	// One wave for everything the commit needs that depends on nothing but
	// the durable containers: the recipe, its index and the sketch go out,
	// the previous version's catalog entry (mark phase) and the referenced
	// containers' metadata (sparse detection; mostly cached, read over the
	// now idle upload channels) come in. None of the three objects is
	// visible before the version-info put at the end.
	var prevInfo *recipe.VersionInfo
	metas := make([]*container.Meta, len(refList))
	if err := wave(func() error {
		_, err := j.recipes.PutRecipe(r)
		return err
	}, func() error {
		return j.recipes.PutIndex(recipe.BuildIndex(r, j.sampler))
	}, func() error {
		return j.node.repo.SimIndex.Put(fileID, j.stats.Version,
			simindex.SketchOf(j.sampled, simindex.DefaultSketchSize))
	}, func() (err error) {
		if j.stats.BaseBy != "name" {
			return nil
		}
		// Only a missing entry means there is nothing to mark; a fault or
		// a corrupt entry must not silently leak the garbage candidates.
		prevInfo, err = j.recipes.GetInfo(fileID, j.stats.Version-1)
		if err != nil && !errors.Is(err, oss.ErrNotFound) {
			return fmt.Errorf("lnode: mark phase: %w", err)
		}
		return nil
	}, func() error {
		return pipe.FanOut(len(refList), packWorkers, func(i int) (err error) {
			// A container carried over from the base's records may be gone:
			// another file's compaction moved its last chunks out. What is
			// gone cannot be sparse; its chunks must resolve (below).
			if metas[i], err = j.containers.ReadMeta(refList[i]); err != nil && !errors.Is(err, oss.ErrNotFound) {
				return fmt.Errorf("lnode: sparse detection: %w", err)
			}
			return nil
		})
	}); err != nil {
		return err
	}
	// No version is acknowledged over a lost container: every record naming
	// a missing one must resolve, as a restore resolves it, to a live chunk.
	var moved []*recipe.ChunkRecord
	for i, id := range refList {
		if metas[i] != nil {
			continue
		}
		r.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
			if rec.Container == id {
				moved = append(moved, rec)
			}
			return true
		})
	}
	if len(moved) > 0 {
		seq, _, _, memo, err := j.node.resolveSequence(j.containers, r, moved, j.acct)
		if err != nil {
			return err
		}
		for i, q := range seq {
			if m := memo[q.Container]; m == nil || m.Find(q.FP) == nil || m.Find(q.FP).Deleted {
				return fmt.Errorf("lnode: chunk %s lost with container %s (the index names %s)", q.FP.Short(), moved[i].Container, q.Container)
			}
		}
	}

	prevSet := make(map[container.ID]bool)
	if prevInfo != nil {
		for _, id := range prevInfo.Containers {
			prevSet[id] = true
		}
		// Version-collection mark phase (§VI-B): containers referenced
		// by the previous version but not this one become garbage
		// candidates associated with the previous version.
		var garbage []container.ID
		for _, id := range prevInfo.Containers {
			if _, still := refs[id]; !still {
				garbage = append(garbage, id)
			}
		}
		if len(garbage) > 0 {
			prevInfo.Garbage = appendUnique(prevInfo.Garbage, garbage)
			if err := j.recipes.PutInfo(prevInfo); err != nil {
				return err
			}
		}
	}
	// The containers this version created.
	for _, id := range refList {
		if !prevSet[id] {
			// Either brand new or newly referenced via similarity.
			if int64(id) > 0 && refs[id] > 0 {
				j.stats.NewContainers = append(j.stats.NewContainers, id)
			}
		}
	}

	// Sparse-container detection (§V-B): utilization of each referenced
	// container from this version's point of view.
	for i, id := range refList {
		if metas[i] == nil || len(metas[i].Chunks) == 0 {
			continue
		}
		util := float64(refs[id]) / float64(len(metas[i].Chunks))
		if util < j.cfg.SparseUtilization {
			j.stats.SparseContainers = append(j.stats.SparseContainers, id)
		}
	}

	info := &recipe.VersionInfo{
		FileID:      fileID,
		Version:     j.stats.Version,
		LogicalSize: j.stats.LogicalBytes,
		StoredSize:  j.stats.StoredBytes,
		NumChunks:   j.stats.NumChunks,
		Containers:  refList,
	}
	return j.recipes.PutInfo(info)
}

func appendUnique(dst []container.ID, add []container.ID) []container.ID {
	seen := make(map[container.ID]bool, len(dst))
	for _, id := range dst {
		seen[id] = true
	}
	for _, id := range add {
		if !seen[id] {
			seen[id] = true
			dst = append(dst, id)
		}
	}
	return dst
}
