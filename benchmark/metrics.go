package main

import (
	"time"

	"slimstore/benchmark/meter"
)

const (
	mib = 1 << 20
	gib = 1 << 30
)

// results maps a metric name to its samples' statistics; the reported
// value is the median.
type results map[string]meter.Summary

// overReps evaluates f on every rep and summarises the values.
func overReps(reps []*rep, f func(*rep) float64) meter.Summary {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return meter.Summarize(xs)
}

// overDatasets is overReps over the first rep of every dataset of the
// cycle: the count metrics, which are a property of the dataset, then do
// not depend on how many reps the time budget happened to fit.
func overDatasets(reps []*rep, f func(*rep) float64) meter.Summary {
	var xs []float64
	seen := make(map[int]bool)
	for _, r := range reps {
		if !seen[r.dataset] {
			seen[r.dataset] = true
			xs = append(xs, f(r))
		}
	}
	return meter.Summarize(xs)
}

// pooled collects the latencies of the given kinds from every rep.
func pooled(reps []*rep, kinds ...string) []float64 {
	var xs []float64
	for _, r := range reps {
		for _, k := range kinds {
			xs = append(xs, r.lat[k]...)
		}
	}
	return xs
}

// percentileOf reports the p-th percentile of xs with the pool's spread,
// or zero when too few samples lie beyond it to call it a percentile.
func percentileOf(xs []float64, p float64) meter.Summary {
	v, err := meter.Percentile(xs, p)
	if err != nil {
		return meter.Summary{N: len(xs)}
	}
	s := meter.Summarize(xs)
	s.Median = v
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func single(v float64) meter.Summary { return meter.Summarize([]float64{v}) }

// processed is the logical bytes a rep backed up, restored and verified.
func (r *rep) processed() float64 { return float64(r.backedUp + r.restored) }

// reported is one end-to-end metric of a run: the value it reports and the
// statistics of the samples it was chosen from.
type reported struct {
	meter.Summary
	Value float64
}

// middle reports the median of the samples: for what the system produced
// rather than how long it took.
func middle(s meter.Summary) reported { return reported{s, s.Median} }

// fastSide reports the quartile of the samples on the fast side — the upper
// one of throughputs, the lower one of times: the value a quarter of the
// reps beat. Whatever else the shared host is doing only ever slows a rep
// down, by up to half for seconds at a time, and a median jumps once that
// has reached half of a run's reps; this value holds until it has reached
// three quarters of them. With three reps it is the fastest, with one the
// only one.
func fastSide(s meter.Summary, higher bool) reported {
	if higher {
		return reported{s, s.Q3}
	}
	return reported{s, s.Q1}
}

// endToEndResults computes the metrics a user of the system would see.
//
// With adjust, time the CPU was busy is expressed at the sizing host's
// nominal speed: a rep's CPU time, and its wall time where the store is
// free and wall is CPU-bound, are divided by the rep's slowdown (how much
// longer than nominal the reference passes took while it ran), and a
// set-up's time by its own. The shared host runs the same binary 30 %
// slower for minutes at a time and the reference slows with it, so this
// is what makes runs an hour apart comparable. Time spent sleeping in the
// cloud store does not scale with the host and is left as measured.
// Without adjust everything is as measured.
func endToEndResults(reps []*rep, setups []setup, cloud, adjust bool) map[string]reported {
	cpuSlow := func(r *rep) float64 {
		if !adjust {
			return 1
		}
		return slowdown(r.refs)
	}
	wallSlow := func(r *rep) float64 {
		if cloud {
			return 1
		}
		return cpuSlow(r)
	}
	tp := func(kind string) reported {
		return fastSide(overReps(reps, func(r *rep) float64 { return r.thr[kind].mbps() * wallSlow(r) }), true)
	}
	p50 := func(kinds ...string) reported {
		return fastSide(overReps(reps, func(r *rep) float64 {
			return meter.Median(pooled([]*rep{r}, kinds...)) / wallSlow(r)
		}), false)
	}
	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.seconds
		if adjust {
			setupS[i] /= s.slow
		}
	}
	return map[string]reported{
		"setup_s":             fastSide(meter.Summarize(setupS), false),
		"backup_first_mbps":   tp(kBackupFirst),
		"backup_incr_mbps":    tp(kBackupIncr),
		"restore_latest_mbps": tp(kRestoreLatest),
		"restore_oldest_mbps": tp(kRestoreOldest),
		"optimize_mbps":       tp(kOptimize),
		"stored_per_logical": middle(overDatasets(reps, func(r *rep) float64 {
			return ratio(float64(r.stored), float64(r.retained))
		})),
		"oss_requests_per_gib": middle(overDatasets(reps, func(r *rep) float64 {
			return ratio(float64(r.oss.Requests()), r.processed()/gib)
		})),
		"cpu_s_per_gib": fastSide(overReps(reps, func(r *rep) float64 {
			return ratio(r.cpu.Seconds()/cpuSlow(r), r.processed()/gib)
		}), false),
		"peak_rss_mb": middle(single(float64(meter.PeakRSSBytes()) / mib)),
		"jobs_per_s": fastSide(overReps(reps, func(r *rep) float64 {
			return ratio(float64(r.done), r.wall.Seconds()) * wallSlow(r)
		}), true),
		"backup_job_p50_ms": p50(kBackupFirst, kBackupIncr),
		// Newest-version restores only: they are the typical restore job,
		// and pooled with the slower oldest-version ones the latencies have
		// two modes with the median in the gap between them, where it
		// swings with how many of each the run happened to fit.
		"restore_job_p50_ms": p50(kRestoreLatest),
	}
}

// spanSums adds up, per rep span, the self time of the spans under it by
// layer and name — sums[rep]["lnode/backup_first"], and ["gnode"] for a
// whole layer — and counts them.
func spanSums(spans []meter.Span, root meter.SpanID) (sums map[meter.SpanID]map[string]time.Duration, counts map[meter.SpanID]int) {
	self := meter.SelfTimes(spans)
	repOf := make(map[meter.SpanID]meter.SpanID, len(spans))
	sums = make(map[meter.SpanID]map[string]time.Duration)
	counts = make(map[meter.SpanID]int)
	for _, s := range spans { // ids ascend with creation: parents come first
		if s.Parent == root && s.ID != root {
			repOf[s.ID] = s.ID
			sums[s.ID] = make(map[string]time.Duration)
		} else {
			repOf[s.ID] = repOf[s.Parent]
		}
		if m := sums[repOf[s.ID]]; m != nil {
			m[s.Layer] += self[s.ID]
			m[s.Layer+"/"+s.Name] += self[s.ID]
			counts[repOf[s.ID]]++
		}
	}
	return sums, counts
}

// perLayerResults computes the single-layer metrics of a traced run from
// the reps' counters and stats (S, C), the spans (S) and the replays (R).
func (x *runner) perLayerResults(reps []*rep, e2e map[string]reported, rp *replayer) results {
	sums, counts := spanSums(x.tr.Spans(), x.root)
	res := results{}
	set := func(name string, f func(*rep) float64) { res[name] = overReps(reps, f) }
	self := func(r *rep, keys ...string) float64 {
		var d time.Duration
		for _, k := range keys {
			d += sums[r.span][k]
		}
		return d.Seconds()
	}

	// oss
	for k := meter.OpKind(0); k < meter.NumOps; k++ {
		set("oss."+k.String()+"_ops", func(r *rep) float64 { return float64(r.oss.Ops[k]) })
	}
	for _, k := range []meter.OpKind{meter.OpPut, meter.OpGet, meter.OpGetRange} {
		set("oss."+k.String()+"_bytes", func(r *rep) float64 { return float64(r.oss.Bytes[k]) })
	}
	for i, ns := range meter.Namespaces[:len(meter.Namespaces)-1] {
		set("oss.ops_"+ns, func(r *rep) float64 { return float64(r.oss.NS[i]) })
	}
	set("oss.failed_ops", func(r *rep) float64 { return float64(r.oss.Failed) })
	set("oss.busy_s", func(r *rep) float64 { return r.oss.Busy.Seconds() })
	set("oss.covered_s", func(r *rep) float64 { return r.oss.Covered.Seconds() })
	set("oss.mean_inflight", func(r *rep) float64 { return ratio(r.oss.Busy.Seconds(), r.oss.Covered.Seconds()) })
	set("oss.max_inflight", func(r *rep) float64 { return float64(r.oss.MaxInflight) })
	set("oss.write_amp", func(r *rep) float64 {
		return ratio(float64(r.oss.Bytes[meter.OpPut]), float64(r.backedUp))
	})
	set("oss.requests_per_backup_job", func(r *rep) float64 {
		return ratio(float64(r.backup.requests), float64(r.backup.jobs))
	})
	set("oss.requests_per_restore_job", func(r *rep) float64 {
		return ratio(float64(r.restore.requests), float64(r.restore.jobs))
	})

	// replays, and the shares of the end-to-end paths they explain: a layer
	// running at its replayed rate would take (end-to-end rate ÷ layer
	// rate) of the path's wall.
	for name, v := range rp.out {
		res[name] = single(v)
	}
	first := e2e["backup_first_mbps"].Value
	verify := overReps(reps, func(r *rep) float64 { return r.thr[kVerify].mbps() })
	cut, hash := rp.out["chunker.cut_mbps"], rp.out["fingerprint.hash_mbps"]
	res["chunker.share_backup_first"] = single(ratio(first, cut))
	res["fingerprint.share_backup_first"] = single(ratio(first, hash))
	res["fingerprint.share_verify"] = single(ratio(verify.Median, hash))

	// lnode
	set("lnode.backup_self_s", func(r *rep) float64 {
		return self(r, "lnode/"+kBackupFirst, "lnode/"+kBackupIncr)
	})
	set("lnode.restore_self_s", func(r *rep) float64 {
		return self(r, "lnode/"+kRestoreLatest, "lnode/"+kRestoreOldest)
	})
	res["lnode.verify_mbps"] = verify
	res["lnode.range_restore_ms"] = meter.Summarize(pooled(reps, kRangeRestore))
	set("lnode.dedup_ratio", func(r *rep) float64 {
		return ratio(float64(r.backup.duplicate), float64(r.backup.logical))
	})
	set("lnode.skip_hit_ratio", func(r *rep) float64 {
		return ratio(float64(r.backup.skipHits), float64(r.backup.skipHits+r.backup.skipMisses))
	})
	set("lnode.super_hit_ratio", func(r *rep) float64 {
		return ratio(float64(r.backup.superHits), float64(r.backup.superHits+r.backup.superMisses))
	})
	set("lnode.new_superchunks", func(r *rep) float64 { return float64(r.backup.newSuper) })
	set("lnode.segments_fetched", func(r *rep) float64 { return float64(r.backup.segments) })
	set("lnode.chunks_per_mib", func(r *rep) float64 {
		return ratio(float64(r.backup.chunks), float64(r.backup.logical)/mib)
	})
	// The owner-less gap: the share of the phase's wall that neither the
	// replayed layer rates nor time with an OSS request in flight explain.
	// Overlap between CPU and OSS makes it a lower bound (it can go
	// negative); with concurrent clients it is not defined and reads 0.
	pack, policy := rp.out["container.pack_mbps"], rp.out["cache.policy_mbps"]
	set("lnode.unaccounted_share_backup", func(r *rep) float64 {
		if x.spec.engine || r.firstWall == 0 {
			return 0
		}
		mb := float64(r.thr[kBackupFirst].bytes) / mib
		known := ratio(mb, cut) + ratio(mb, hash) + ratio(mb, pack) + r.firstCovered.Seconds()
		return 1 - known/r.firstWall.Seconds()
	})
	set("lnode.unaccounted_share_restore", func(r *rep) float64 {
		if x.spec.engine || r.restoreWall == 0 {
			return 0
		}
		mb := float64(r.thr[kRestoreLatest].bytes+r.thr[kRestoreOldest].bytes) / mib
		known := ratio(mb, policy) + r.restoreCovered.Seconds()
		return 1 - known/r.restoreWall.Seconds()
	})
	set("lnode.model_residual_backup", func(r *rep) float64 {
		wall := r.thr[kBackupFirst].wall + r.thr[kBackupIncr].wall
		return ratio(wall.Seconds(), r.backup.virtual.Seconds())
	})
	set("lnode.model_residual_restore", func(r *rep) float64 {
		wall := r.thr[kRestoreLatest].wall + r.thr[kRestoreOldest].wall
		return ratio(wall.Seconds(), r.restore.virtual.Seconds())
	})
	set("lnode.alloc_bytes_per_logical_byte", func(r *rep) float64 {
		return ratio(float64(r.alloc), r.processed())
	})
	set("lnode.gc_cycles", func(r *rep) float64 { return float64(r.gcCycles) })

	// container, recipe
	set("container.count", func(r *rep) float64 { return float64(r.containers) })
	set("container.mean_utilization", func(r *rep) float64 {
		return ratio(float64(r.liveBytes), float64(r.dataBytes))
	})
	set("recipe.bytes_per_logical_mib", func(r *rep) float64 {
		return ratio(float64(r.recipeBytes), float64(r.retained)/mib)
	})

	// cache
	set("cache.read_amp", func(r *rep) float64 {
		c := r.restore.cache
		return ratio(float64(c.OSSBytes+c.RangedBytes), float64(c.LogicalBytes))
	})
	set("cache.containers_per_100mb", func(r *rep) float64 { return r.restore.cache.ReadAmplification() })
	set("cache.rereads", func(r *rep) float64 { return float64(r.restore.cache.Rereads) })
	set("cache.mem_hit_ratio", func(r *rep) float64 {
		return ratio(float64(r.restore.cache.MemHits), float64(r.restore.cache.Requests))
	})
	set("cache.ranged_read_share", func(r *rep) float64 {
		c := r.restore.cache
		return ratio(float64(c.RangedReads), float64(c.ContainersRead))
	})
	set("cache.resolve_meta_reads", func(r *rep) float64 { return float64(r.restore.cache.ResolveMetaReads) })
	set("cache.prefetch_consumed_ratio", func(r *rep) float64 {
		pf := r.restore.prefetch
		return ratio(float64(pf.Consumed), float64(pf.Consumed+pf.Direct))
	})
	set("cache.prefetch_cancelled", func(r *rep) float64 { return float64(r.restore.prefetch.Cancelled) })
	set("cache.shared_hit_ratio", func(r *rep) float64 {
		s := r.shared
		return ratio(float64(s.Hits), float64(s.Hits+s.Misses+s.InflightJoins))
	})
	set("cache.shared_joins", func(r *rep) float64 { return float64(r.shared.InflightJoins) })
	set("cache.shared_evictions", func(r *rep) float64 { return float64(r.shared.Evictions) })

	// globalindex, kvstore
	set("globalindex.bloom_skip_ratio", func(r *rep) float64 {
		return ratio(float64(r.reverse.BloomSkips), float64(r.reverse.ChunksScanned))
	})
	set("globalindex.entries", func(r *rep) float64 { return float64(r.index.Entries) })
	set("kvstore.flushes", func(r *rep) float64 { return float64(r.index.KV.Flushes) })
	set("kvstore.compactions", func(r *rep) float64 { return float64(r.index.KV.Compactions) })
	set("kvstore.table_reads", func(r *rep) float64 { return float64(r.index.KV.TableReads) })
	set("kvstore.block_cache_hit_ratio", func(r *rep) float64 {
		kv := r.index.KV
		return ratio(float64(kv.BlockCacheHits), float64(kv.BlockCacheHits+kv.TableReads))
	})
	// Bytes put under gidx/ per byte of index entry (20-byte fingerprint +
	// 8-byte container id) the index ended up holding.
	set("kvstore.write_amp", func(r *rep) float64 {
		return ratio(float64(r.oss.PutBytesIn("gidx")), float64(r.index.Entries)*28)
	})

	// gnode
	set("gnode.reverse_dedup_s", func(r *rep) float64 { return r.thr[kReverseDedup].wall.Seconds() })
	set("gnode.scc_s", func(r *rep) float64 { return r.thr[kSCC].wall.Seconds() })
	res["gnode.delete_version_ms"] = meter.Summarize(pooled(reps, kDelete))
	set("gnode.scrub_mbps", func(r *rep) float64 { return mbps(r.scrubbed, r.thr[kScrub].wall) })
	set("gnode.audit_s", func(r *rep) float64 { return r.thr[kAudit].wall.Seconds() })
	set("gnode.self_s", func(r *rep) float64 { return self(r, "gnode") })
	set("gnode.maint_s_per_gib", func(r *rep) float64 {
		var d time.Duration
		for _, k := range []string{kOptimize, kDelete, kScrub, kAudit} {
			d += r.thr[k].wall
		}
		return ratio(d.Seconds(), float64(r.backedUp)/gib)
	})
	set("gnode.dups_removed", func(r *rep) float64 { return float64(r.reverse.DuplicatesRemoved) })
	set("gnode.containers_rewritten", func(r *rep) float64 { return float64(r.reverse.ContainersRewritten) })
	set("gnode.bytes_reclaimed", func(r *rep) float64 {
		return float64(r.reverse.BytesReclaimed + r.gcReclaimed)
	})
	set("gnode.bytes_moved", func(r *rep) float64 { return float64(r.sccMoved) })

	// jobs: in the serial workloads the one caller is the one worker.
	set("jobs.completed", func(r *rep) float64 { return float64(r.done) })
	set("jobs.failed", func(r *rep) float64 { return float64(r.failed) })
	workers := 1.0
	if x.spec.engine {
		workers = clients
	}
	set("jobs.worker_busy_frac", func(r *rep) float64 {
		var busy float64
		for _, ms := range r.lat {
			for _, v := range ms {
				busy += v / 1e3
			}
		}
		return ratio(busy, workers*r.wall.Seconds())
	})
	res["jobs.backup_job_p95_ms"] = percentileOf(pooled(reps, kBackupFirst, kBackupIncr), 95)
	res["jobs.restore_job_p95_ms"] = percentileOf(pooled(reps, kRestoreLatest, kRestoreOldest), 95)
	res["jobs.optimize_job_p50_ms"] = meter.Summarize(pooled(reps, kOptimize))
	res["jobs.optimize_job_p95_ms"] = percentileOf(pooled(reps, kOptimize), 95)
	res["jobs.verify_job_p50_ms"] = meter.Summarize(pooled(reps, kVerify))

	var opens []float64
	for _, r := range reps {
		opens = append(opens, r.openCold...)
	}
	res["core.open_cold_ms"] = meter.Summarize(opens)

	set("host.reference_us", func(r *rep) float64 { return meter.Median(r.refs) / 1e3 })

	// trace: spans per rep, and what recording them cost as a share of
	// the rep's wall (spans × the replayed cost of one span).
	set("trace.spans", func(r *rep) float64 { return float64(counts[r.span]) })
	set("trace.overhead_share", func(r *rep) float64 {
		return ratio(float64(counts[r.span])*rp.spanNS/1e9, r.wall.Seconds())
	})
	return res
}
