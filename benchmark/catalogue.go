package main

import "strings"

// The metric catalogue: every number the benchmark reports, by name. The
// root BENCHMARK.json carries the same names, units, directions and
// bounds (TestCatalogueMatchesBenchmarkJSON holds the two together); the
// extra columns — layer, source, which end-to-end metric a layer metric
// should move on which workload — live here and in README.md because
// BENCHMARK.json's schema has no room for them.

// endToEnd is one metric a user of the system would see. Every workload
// reports every one of them; timings are reported at the host's nominal
// speed, as the fast-side quartile over reps (endToEndResults).
type endToEnd struct {
	name, unit string
	higher     bool    // true: higher is better
	bound      float64 // share of the parent's median it may worsen by
	what       string
}

// perLayer is one metric of a single layer, taken from outside.
type perLayer struct {
	name, unit string
	higher     bool
	// source: S = spans/counters recorded by the harness and its store
	// wrapper, R = replay of the workload's own bytes through the layer's
	// public functions, C = counts from the stats structs calls return.
	source string
}

func (m perLayer) layer() string {
	layer, _, _ := strings.Cut(m.name, ".")
	return layer
}

var endToEndMetrics = []endToEnd{
	{"setup_s", "s", false, 0.25, "what precedes a rep's first timed operation: dataset generation plus opening the system on an empty store"},
	{"backup_first_mbps", "MB/s", true, 0.25, "version-0 backups (no history, all unique): logical bytes over summed operation wall"},
	{"backup_incr_mbps", "MB/s", true, 0.25, "backups of versions >= 1 (skip chunking + merging path)"},
	{"restore_latest_mbps", "MB/s", true, 0.25, "restore of the newest version of every file into a comparing writer"},
	{"restore_oldest_mbps", "MB/s", true, 0.25, "restore of the oldest retained version (redirects, fragmentation)"},
	{"optimize_mbps", "MB/s", true, 0.25, "logical bytes backed up over wall spent in ReverseDedup + CompactSparse for them"},
	{"stored_per_logical", "ratio", false, 0.1, "OSS bytes held at the end (all namespaces) over logical bytes ingested and still retained"},
	{"oss_requests_per_gib", "count", false, 0.15, "OSS requests of every kind over logical GiB backed up + restored + verified"},
	{"cpu_s_per_gib", "s", false, 0.25, "process user+sys CPU over timed regions per logical GiB backed up + restored + verified"},
	{"peak_rss_mb", "MB", false, 0.25, "resident-set high-water mark at exit (dataset and in-memory store are constant across commits)"},
	{"jobs_per_s", "1/s", true, 0.25, "completed operations (calls or engine jobs) over timed wall"},
	{"backup_job_p50_ms", "ms", false, 0.25, "median latency of one backup call, or Submit-to-Wait of one backup job"},
	{"restore_job_p50_ms", "ms", false, 0.25, "median latency of one newest-version restore call or job"},
}

var perLayerMetrics = []perLayer{
	// oss — everything the store wrapper sees.
	{"oss.put_ops", "count", false, "S"},
	{"oss.get_ops", "count", false, "S"},
	{"oss.getrange_ops", "count", false, "S"},
	{"oss.head_ops", "count", false, "S"},
	{"oss.delete_ops", "count", false, "S"},
	{"oss.list_ops", "count", false, "S"},
	{"oss.put_bytes", "bytes", false, "S"},
	{"oss.get_bytes", "bytes", false, "S"},
	{"oss.getrange_bytes", "bytes", false, "S"},
	{"oss.failed_ops", "count", false, "S"},
	{"oss.busy_s", "s", false, "S"},
	{"oss.covered_s", "s", false, "S"},
	{"oss.mean_inflight", "count", true, "S"},
	{"oss.max_inflight", "count", true, "S"},
	{"oss.write_amp", "ratio", false, "S"},
	{"oss.ops_containers", "count", false, "S"},
	{"oss.ops_recipes", "count", false, "S"},
	{"oss.ops_catalog", "count", false, "S"},
	{"oss.ops_simindex", "count", false, "S"},
	{"oss.ops_gidx", "count", false, "S"},
	{"oss.ops_journal", "count", false, "S"},
	{"oss.requests_per_backup_job", "count", false, "C"},
	{"oss.requests_per_restore_job", "count", false, "C"},
	// chunker, fingerprint — replayed over version 0 of the first file.
	{"chunker.cut_mbps", "MB/s", true, "R"},
	{"chunker.chunks", "count", false, "R"},
	{"chunker.mean_chunk_bytes", "bytes", true, "R"},
	{"chunker.share_backup_first", "ratio", false, "R"},
	{"fingerprint.hash_mbps", "MB/s", true, "R"},
	{"fingerprint.share_backup_first", "ratio", false, "R"},
	{"fingerprint.share_verify", "ratio", false, "R"},
	// lnode
	{"lnode.backup_self_s", "s", false, "S"},
	{"lnode.restore_self_s", "s", false, "S"},
	{"lnode.verify_mbps", "MB/s", true, "S"},
	{"lnode.range_restore_ms", "ms", false, "S"},
	{"lnode.ingest_handoff_mbps", "MB/s", true, "R"},
	{"lnode.restore_handoff_mbps", "MB/s", true, "R"},
	{"lnode.dedup_ratio", "ratio", true, "C"},
	{"lnode.skip_hit_ratio", "ratio", true, "C"},
	{"lnode.super_hit_ratio", "ratio", true, "C"},
	{"lnode.new_superchunks", "count", true, "C"},
	{"lnode.segments_fetched", "count", false, "C"},
	{"lnode.chunks_per_mib", "count", false, "C"},
	{"lnode.unaccounted_share_backup", "ratio", false, "S"},
	{"lnode.unaccounted_share_restore", "ratio", false, "S"},
	{"lnode.model_residual_backup", "ratio", false, "C"},
	{"lnode.model_residual_restore", "ratio", false, "C"},
	{"lnode.alloc_bytes_per_logical_byte", "ratio", false, "S"},
	{"lnode.gc_cycles", "count", false, "S"},
	// container
	{"container.pack_mbps", "MB/s", true, "R"},
	{"container.read_mbps", "MB/s", true, "R"},
	{"container.readspans_mbps", "MB/s", true, "R"},
	{"container.meta_find_ns", "ns", false, "R"},
	{"container.count", "count", false, "C"},
	{"container.mean_utilization", "ratio", true, "C"},
	// recipe — replayed on the recipes the run produced.
	{"recipe.encode_mbps", "MB/s", true, "R"},
	{"recipe.decode_ns_per_chunk", "ns", false, "R"},
	{"recipe.bytes_per_logical_mib", "bytes", false, "C"},
	{"recipe.segment_fetch_us", "us", false, "R"},
	// simindex
	{"simindex.sketch_us", "us", false, "R"},
	{"simindex.query_us", "us", false, "R"},
	{"simindex.put_us", "us", false, "R"},
	// cache
	{"cache.policy_mbps", "MB/s", true, "R"},
	{"cache.read_amp", "ratio", false, "C"},
	{"cache.containers_per_100mb", "count", false, "C"},
	{"cache.rereads", "count", false, "C"},
	{"cache.mem_hit_ratio", "ratio", true, "C"},
	{"cache.ranged_read_share", "ratio", true, "C"},
	{"cache.resolve_meta_reads", "count", false, "C"},
	{"cache.prefetch_consumed_ratio", "ratio", true, "C"},
	{"cache.prefetch_cancelled", "count", false, "C"},
	{"cache.shared_hit_ratio", "ratio", true, "C"},
	{"cache.shared_joins", "count", true, "C"},
	{"cache.shared_evictions", "count", false, "C"},
	// globalindex, kvstore — replayed with the run's fingerprints.
	{"globalindex.putbatch_ns_per_fp", "ns", false, "R"},
	{"globalindex.getbatch_hit_ns_per_fp", "ns", false, "R"},
	{"globalindex.getbatch_miss_ns_per_fp", "ns", false, "R"},
	{"globalindex.bloom_skip_ratio", "ratio", true, "C"},
	{"globalindex.entries", "count", false, "C"},
	{"kvstore.get_ns", "ns", false, "R"},
	{"kvstore.getmulti_ns_per_key", "ns", false, "R"},
	{"kvstore.apply_ns_per_key", "ns", false, "R"},
	{"kvstore.flushes", "count", false, "C"},
	{"kvstore.compactions", "count", false, "C"},
	{"kvstore.table_reads", "count", false, "C"},
	{"kvstore.block_cache_hit_ratio", "ratio", true, "C"},
	{"kvstore.write_amp", "ratio", false, "S"},
	// gnode
	{"gnode.reverse_dedup_s", "s", false, "S"},
	{"gnode.scc_s", "s", false, "S"},
	{"gnode.delete_version_ms", "ms", false, "S"},
	{"gnode.scrub_mbps", "MB/s", true, "S"},
	{"gnode.audit_s", "s", false, "S"},
	{"gnode.self_s", "s", false, "S"},
	{"gnode.maint_s_per_gib", "s", false, "S"},
	{"gnode.dups_removed", "count", true, "C"},
	{"gnode.containers_rewritten", "count", false, "C"},
	{"gnode.bytes_reclaimed", "bytes", true, "C"},
	{"gnode.bytes_moved", "bytes", false, "C"},
	// jobs — the engine (rdata-jobs) or, in serial workloads, the one
	// caller; the tail latencies demoted from the end-to-end set live here.
	{"jobs.completed", "count", true, "C"},
	{"jobs.failed", "count", false, "C"},
	{"jobs.worker_busy_frac", "ratio", true, "S"},
	{"jobs.backup_job_p95_ms", "ms", false, "S"},
	{"jobs.restore_job_p95_ms", "ms", false, "S"},
	{"jobs.optimize_job_p50_ms", "ms", false, "S"},
	{"jobs.optimize_job_p95_ms", "ms", false, "S"},
	{"jobs.verify_job_p50_ms", "ms", false, "S"},
	// core — what a cold handle over a populated store costs to open.
	{"core.open_cold_ms", "ms", false, "S"},
	// ec, repl — no workload runs these layers (default topology 1x1, EC
	// off); recorded so a later issue that adds one has a ceiling to cite.
	{"ec.encode_mbps", "MB/s", true, "R"},
	{"ec.reconstruct_mbps", "MB/s", true, "R"},
	{"repl.apply_us", "us", false, "R"},
	// host — not a layer of the system but the thing under it: how long a
	// fixed piece of standard-library work (meter.Reference) took alongside
	// the timed phases. When this moves, the hour got slower, not the commit.
	{"host.reference_us", "us", false, "S"},
	// trace — what recording the spans costs.
	{"trace.spans", "count", false, "S"},
	{"trace.overhead_share", "ratio", false, "R"},
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}
