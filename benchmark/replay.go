package main

import (
	"fmt"
	"time"

	"slimstore/internal/cache"
	"slimstore/internal/chunker"
	"slimstore/internal/container"
	"slimstore/internal/ec"
	"slimstore/internal/fingerprint"
	"slimstore/internal/globalindex"
	"slimstore/internal/kvstore"
	"slimstore/internal/oss"
	"slimstore/internal/recipe"
	"slimstore/internal/repl"
	"slimstore/internal/simclock"
	"slimstore/internal/simindex"

	"slimstore/benchmark/meter"
)

// replayer times single layers from outside: it feeds the workload's own
// bytes, fingerprints and recipes through each layer's public functions
// alone, on scratch in-memory stores, and reports the median of a few
// repetitions. These are the per-layer ceilings ("R" metrics) the
// end-to-end shares are set against.
type replayer struct {
	budget time.Duration      // wall to spend per replayed function
	out    map[string]float64 // metric name → value
	spanNS float64            // what recording one span costs
	failed []string
}

// measure calls fn, which times its own measured section and returns it,
// until the budget is spent (three times at least, once with no budget)
// and returns the median.
func (p *replayer) measure(fn func() (time.Duration, error)) time.Duration {
	var ds []float64
	t0 := time.Now()
	for len(ds) < 3 || time.Since(t0) < p.budget {
		d, err := fn()
		if err != nil {
			p.failed = append(p.failed, err.Error())
			return 0
		}
		ds = append(ds, float64(d))
		if p.budget == 0 {
			break
		}
	}
	return time.Duration(meter.Median(ds))
}

// timed is measure for a fn that is measured whole.
func (p *replayer) timed(fn func() error) time.Duration {
	return p.measure(func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	})
}

func (p *replayer) fail(what string, err error) bool {
	if err != nil {
		p.failed = append(p.failed, what+": "+err.Error())
	}
	return err != nil
}

func mbps(bytes int64, d time.Duration) float64 { return simclock.ThroughputMBps(bytes, d) }

func per(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n) / float64(unit)
}

// replay runs every replayed measurement for the workload: over (a prefix
// of) version 0 of its first file, and over the recipes, containers and
// indexes the last rep left on store.
func (x *runner) replay(store *meter.Store, budget time.Duration) *replayer {
	p := &replayer{budget: budget, out: make(map[string]float64)}
	cfg := x.spec.config()
	sample := x.data.versions[0][0]
	sample = sample[:min(len(sample), 8<<20)]
	n := int64(len(sample))

	// chunker, fingerprint
	cutter, err := chunker.New(cfg.ChunkAlgo, cfg.ChunkParams)
	if p.fail("chunker", err) {
		return p
	}
	var chunks []chunker.Chunk
	p.out["chunker.cut_mbps"] = mbps(n, p.timed(func() error {
		chunks = chunker.SplitAll(sample, cutter)
		return nil
	}))
	p.out["chunker.chunks"] = float64(len(chunks))
	p.out["chunker.mean_chunk_bytes"] = float64(n) / float64(len(chunks))
	fps := make([]fingerprint.FP, len(chunks))
	p.out["fingerprint.hash_mbps"] = mbps(n, p.timed(func() error {
		for i, c := range chunks {
			fps[i] = fingerprint.Of(cfg.FingerprintAlg, c.Data)
		}
		return nil
	}))

	p.replayLNode(x, sample, chunks, fps)
	p.replayContainer(cfg.ContainerCapacity, chunks, fps)
	p.replayIndexes(cfg.GlobalKV, fps)
	p.replayStored(x, store, fps)
	p.replayRedundancy(sample)

	// trace: what one recorded span costs.
	const spans = 20000
	p.spanNS = per(p.timed(func() error {
		tr := meter.NewTracer()
		for i := 0; i < spans; i++ {
			tr.End(tr.Begin(0, "trace", "probe"))
		}
		return nil
	}), spans, time.Nanosecond)
	return p
}

// replayLNode times the pooled ingest and restore hand-offs on a scratch
// L-node.
func (p *replayer) replayLNode(x *runner, sample []byte, chunks []chunker.Chunk, fps []fingerprint.FP) {
	sys, err := openSystem(oss.NewMem(), x.spec.config())
	if p.fail("scratch system", err) {
		return
	}
	n := int64(len(sample))
	p.out["lnode.ingest_handoff_mbps"] = mbps(n, p.timed(func() error {
		if got := sys.l.IngestHandoff(sample); got == 0 {
			return fmt.Errorf("ingest hand-off produced no chunks")
		}
		return nil
	}))
	payloads := make([][]byte, len(chunks))
	seq := make([]cache.Request, len(chunks))
	for i, c := range chunks {
		payloads[i] = c.Data
		seq[i] = cache.Request{FP: fps[i], Container: 1, Size: uint32(len(c.Data))}
	}
	p.out["lnode.restore_handoff_mbps"] = mbps(n, p.timed(func() error {
		if got := sys.l.RestoreHandoff(payloads, seq, false); got != len(seq) {
			return fmt.Errorf("restore hand-off wrote %d of %d chunks", got, len(seq))
		}
		return nil
	}))
	p.fail("close scratch system", sys.close())
}

// replayContainer packs the sample's chunks into containers, then reads
// them back whole, by spans, and by metadata lookup.
func (p *replayer) replayContainer(capacity int, chunks []chunker.Chunk, fps []fingerprint.FP) {
	var cs *container.Store
	home := make([]container.ID, len(chunks))
	var n int64
	for _, c := range chunks {
		n += int64(len(c.Data))
	}
	p.out["container.pack_mbps"] = mbps(n, p.measure(func() (time.Duration, error) {
		var err error
		if cs, err = container.NewStore(oss.NewMem(), capacity); err != nil {
			return 0, err
		}
		t0 := time.Now()
		b := container.NewBuilder(cs)
		for i, c := range chunks {
			if home[i], err = b.Add(fps[i], c.Data); err != nil {
				return 0, err
			}
		}
		err = b.Flush()
		return time.Since(t0), err
	}))
	if cs == nil {
		return
	}
	ids, err := cs.List()
	if p.fail("list packed containers", err) {
		return
	}
	p.out["container.read_mbps"] = mbps(n, p.timed(func() error {
		for _, id := range ids {
			if _, err := cs.Read(id); err != nil {
				return err
			}
		}
		return nil
	}))
	// One span per container covering the first half of its chunks.
	metas := make(map[container.ID]*container.Meta, len(ids))
	spans := make(map[container.ID][]container.Span, len(ids))
	var spanBytes int64
	for _, id := range ids {
		m, err := cs.ReadMeta(id)
		if p.fail("read packed meta", err) {
			return
		}
		metas[id] = m
		half := max(1, len(m.Chunks)/2)
		sp := container.Span{Chunks: make([]int, half)}
		for i := range sp.Chunks {
			sp.Chunks[i] = i
			sp.Len += int64(m.Chunks[i].Size)
		}
		spans[id] = []container.Span{sp}
		spanBytes += sp.Len
	}
	p.out["container.readspans_mbps"] = mbps(spanBytes, p.timed(func() error {
		for _, id := range ids {
			c, err := cs.ReadSpans(id, spans[id])
			if err != nil {
				return err
			}
			cs.Release(c)
		}
		return nil
	}))
	p.out["container.meta_find_ns"] = per(p.timed(func() error {
		for i, fp := range fps {
			if metas[home[i]].Find(fp) == nil {
				return fmt.Errorf("chunk %d not found in its container's metadata", i)
			}
		}
		return nil
	}), len(fps), time.Nanosecond)
}

// replayIndexes times the global index and the LSM store under it with
// the sample's fingerprints, on scratch stores sized like the workload's.
func (p *replayer) replayIndexes(kv kvstore.Options, fps []fingerprint.FP) {
	entries := make([]globalindex.Entry, len(fps))
	misses := make([]fingerprint.FP, len(fps))
	keys := make([][]byte, len(fps))
	for i, fp := range fps {
		entries[i] = globalindex.Entry{FP: fp, ID: container.ID(1 + i/1024)}
		misses[i] = fingerprint.OfBytes(fp[:])
		keys[i] = fps[i][:]
	}
	nfp := len(fps)

	var gi *globalindex.Index
	p.out["globalindex.putbatch_ns_per_fp"] = per(p.measure(func() (time.Duration, error) {
		var err error
		if gi, err = globalindex.Open(oss.NewMem(), globalindex.Options{KV: kv}); err != nil {
			return 0, err
		}
		t0 := time.Now()
		err = gi.PutBatch(entries)
		return time.Since(t0), err
	}), nfp, time.Nanosecond)
	if gi != nil && !p.fail("flush scratch index", gi.Flush()) {
		probe := func(fps []fingerprint.FP, want bool) float64 {
			return per(p.timed(func() error {
				_, found, _, err := gi.GetBatch(fps)
				if err == nil && len(found) > 0 && found[0] != want {
					err = fmt.Errorf("scratch index lookup: found=%v, want %v", found[0], want)
				}
				return err
			}), nfp, time.Nanosecond)
		}
		p.out["globalindex.getbatch_hit_ns_per_fp"] = probe(fps, true)
		p.out["globalindex.getbatch_miss_ns_per_fp"] = probe(misses, false)
		p.fail("close scratch index", gi.Close())
	}

	var db *kvstore.DB
	val := make([]byte, 8)
	p.out["kvstore.apply_ns_per_key"] = per(p.measure(func() (time.Duration, error) {
		var err error
		if db, err = kvstore.Open(oss.NewMem(), kv); err != nil {
			return 0, err
		}
		var b kvstore.Batch
		for _, k := range keys {
			b.Put(k, val)
		}
		t0 := time.Now()
		err = db.Apply(&b)
		return time.Since(t0), err
	}), nfp, time.Nanosecond)
	if db == nil || p.fail("flush scratch kvstore", db.Flush()) {
		return
	}
	p.out["kvstore.get_ns"] = per(p.timed(func() error {
		for _, k := range keys {
			if _, found, err := db.Get(k); err != nil || !found {
				return fmt.Errorf("scratch kvstore get: found=%v err=%v", found, err)
			}
		}
		return nil
	}), nfp, time.Nanosecond)
	p.out["kvstore.getmulti_ns_per_key"] = per(p.timed(func() error {
		_, _, err := db.GetMulti(keys)
		return err
	}), nfp, time.Nanosecond)
	p.fail("close scratch kvstore", db.Close())
}

// replayStored times the layers whose inputs are what the run itself
// produced: the newest recipe of the first file, the populated similar
// file index, and the cache policy over that version's real request
// sequence with every container already in memory.
func (p *replayer) replayStored(x *runner, store *meter.Store, fps []fingerprint.FP) {
	cfg := x.spec.config()
	sys, err := openSystem(store, cfg)
	if p.fail("reopen populated store", err) {
		return
	}
	id, last := x.data.ids[0], x.spec.versions-1
	rc, err := sys.repo.Recipes.GetRecipe(id, last)
	if p.fail("get recipe", err) {
		return
	}
	var enc []byte
	d := p.timed(func() error {
		enc = recipe.Encode(rc)
		return nil
	})
	p.out["recipe.encode_mbps"] = mbps(int64(len(enc)), d)
	p.out["recipe.decode_ns_per_chunk"] = per(p.timed(func() error {
		_, err := recipe.Decode(enc)
		return err
	}), rc.NumChunks(), time.Nanosecond)
	sr, err := sys.repo.Recipes.OpenSegments(id, last)
	if !p.fail("open segments", err) {
		p.out["recipe.segment_fetch_us"] = per(p.timed(func() error {
			for s := 0; s < sr.NumSegments(); s++ {
				if _, err := sr.Fetch(s); err != nil {
					return err
				}
			}
			return nil
		}), sr.NumSegments(), time.Microsecond)
	}

	var sk simindex.Sketch
	p.out["simindex.sketch_us"] = per(p.timed(func() error {
		sk = simindex.SketchOf(fps, simindex.DefaultSketchSize)
		return nil
	}), 1, time.Microsecond)
	const queries = 64
	p.out["simindex.query_us"] = per(p.timed(func() error {
		for i := 0; i < queries; i++ {
			sys.repo.SimIndex.Query(sk, cfg.SimilarityMinScore)
		}
		return nil
	}), queries, time.Microsecond)
	scratch, err := simindex.Open(oss.NewMem())
	if !p.fail("open scratch simindex", err) {
		v := 0
		p.out["simindex.put_us"] = per(p.timed(func() error {
			v++
			return scratch.Put("replay/file", v, sk)
		}), 1, time.Microsecond)
	}

	seq, err := resolve(sys, rc)
	if p.fail("resolve request sequence", err) {
		return
	}
	loaded := make(map[container.ID]*container.Container)
	var bytes int64
	for _, rq := range seq {
		bytes += int64(rq.Size)
		if loaded[rq.Container] == nil {
			c, err := sys.repo.Containers.Read(rq.Container)
			if p.fail("load container", err) {
				return
			}
			loaded[rq.Container] = c
		}
	}
	p.out["cache.policy_mbps"] = mbps(bytes, p.timed(func() error {
		policy, err := cache.New(cfg.RestorePolicy, cache.Config{
			MemBytes: cfg.CacheMemBytes, DiskBytes: cfg.CacheDiskBytes, LAW: cfg.LAWChunks,
		})
		if err != nil {
			return err
		}
		var got int64
		_, err = policy.Restore(seq,
			func(id container.ID) (*container.Container, error) { return loaded[id], nil },
			func(data []byte) error { got += int64(len(data)); return nil })
		if err == nil && got != bytes {
			err = fmt.Errorf("policy replay emitted %d of %d bytes", got, bytes)
		}
		return err
	}))
	p.fail("close replay handle", sys.close())
}

// resolve turns a recipe into its restore request sequence the way a
// restore does: a chunk whose recorded copy was deleted by reverse dedup
// or compaction is looked up in the global index.
func resolve(sys *system, rc *recipe.Recipe) ([]cache.Request, error) {
	seq := make([]cache.Request, 0, rc.NumChunks())
	metas := make(map[container.ID]*container.Meta)
	var err error
	rc.Iter(func(_, _ int, rec *recipe.ChunkRecord) bool {
		m, seen := metas[rec.Container]
		if !seen {
			var merr error
			if m, merr = sys.repo.Containers.ReadMeta(rec.Container); merr != nil {
				m = nil // container gone: redirect below
			}
			metas[rec.Container] = m
		}
		rq := cache.Request{FP: rec.FP, Container: rec.Container, Size: rec.Size}
		if m == nil || m.Find(rec.FP) == nil || m.Find(rec.FP).Deleted {
			id, ok, gerr := sys.repo.Global.Get(rec.FP)
			if gerr != nil || !ok {
				err = fmt.Errorf("chunk %s has no live copy (%v)", rec.FP.Short(), gerr)
				return false
			}
			rq.Container = id
		}
		seq = append(seq, rq)
		return true
	})
	return seq, err
}

// replayRedundancy records ceilings for the two layers no workload runs
// under the default topology: RS(4+2) over one 4 MiB object, and a
// 3-replica group applying a 256-key batch.
func (p *replayer) replayRedundancy(sample []byte) {
	obj := make([]byte, 4<<20)
	for off := 0; off < len(obj); off += copy(obj[off:], sample) {
	}
	codec, err := ec.NewCodec(4, 2)
	if p.fail("ec codec", err) {
		return
	}
	var shards [][]byte
	p.out["ec.encode_mbps"] = mbps(int64(len(obj)), p.timed(func() error {
		shards = codec.Encode(obj)
		return nil
	}))
	p.out["ec.reconstruct_mbps"] = mbps(int64(len(obj)), p.timed(func() error {
		lost := append([][]byte(nil), shards...)
		lost[0], lost[3] = nil, nil
		return codec.Reconstruct(lost)
	}))

	grp, err := repl.Open(oss.NewMem(), repl.Options{Replicas: 3, Prefix: "gidx/s0/"})
	if p.fail("open replica group", err) {
		return
	}
	var b kvstore.Batch
	for i := 0; i < 256; i++ {
		fp := fingerprint.OfBytes([]byte{byte(i), byte(i >> 8)})
		b.Put(fp[:], fp[:8])
	}
	p.out["repl.apply_us"] = per(p.timed(func() error { return grp.Apply(&b) }), 1, time.Microsecond)
	p.fail("close replica group", grp.Close())
}
