package bench

import (
	"encoding/json"
	"testing"
)

// TestReplRegression is the BENCH_repl.json gate: replicated index
// overhead stays bounded, leader failover costs real-but-bounded virtual
// downtime, and index sharding buys back sweep wall clock. The sweep
// floor is conservative: 4 shards over a db.mu-serialized 1-shard
// baseline measure ~2.3-2.5x (best-of-2 per point) once a probe needs
// more blocks than one table probe fetches concurrently — the regime
// repl.go's filler entries put the index in.
func TestReplRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("slow bench sweep")
	}
	rep, err := RunReplBench([]int{1, 4}, replSweepPerOp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}

	// Replication overhead is a deterministic op/byte count; the bounds
	// say "durability costs less than brute-force mirroring": a 3-replica
	// group must not triple the base-store puts (the shared log amortises
	// them) and reads must stay leader-local.
	o := rep.Overhead
	if o.SinglePutOps <= 0 || o.SingleGetOps <= 0 {
		t.Fatalf("degenerate overhead baseline: %+v", o)
	}
	if o.PutOpsOverhead < 1.0 || o.PutOpsOverhead > 2.0 {
		t.Errorf("put op overhead = %.2fx, want within [1.0, 2.0]", o.PutOpsOverhead)
	}
	if o.PutByteOverhead < 1.0 || o.PutByteOverhead >= float64(o.Replicas) {
		t.Errorf("put byte overhead = %.2fx, want within [1.0, %d.0)", o.PutByteOverhead, o.Replicas)
	}
	if o.GetOpsOverhead > 1.5 {
		t.Errorf("get op overhead = %.2fx, want <= 1.5 (reads must stay leader-local)", o.GetOpsOverhead)
	}

	// Failover: every kill must cost one election, and each election must
	// charge real virtual downtime — but bounded (the acceptance bar is
	// <= 500ms per failover; the configured detection+election budget is
	// 160ms).
	f := rep.Failover
	if f.Failovers != int64(f.Kills) {
		t.Errorf("got %d failovers for %d leader kills", f.Failovers, f.Kills)
	}
	if f.PerFailoverMS <= 0 {
		t.Errorf("failover downtime = %.1fms per failover, want > 0 (free failover means nothing was charged)", f.PerFailoverMS)
	}
	if f.PerFailoverMS > 500 {
		t.Errorf("failover downtime = %.1fms per failover, want <= 500ms", f.PerFailoverMS)
	}

	// Sweep scaling: sharding must not change the logical work, and the
	// parallel index must pay off on the wall clock.
	if len(rep.Sweep) != 2 {
		t.Fatalf("got %d sweep points, want 2", len(rep.Sweep))
	}
	one, four := rep.Sweep[0], rep.Sweep[1]
	if one.ContainersMarked != four.ContainersMarked || one.ContainersSwept != four.ContainersSwept ||
		one.IndexOps != four.IndexOps {
		t.Fatalf("work diverges between 1 and 4 shards:\n1: %+v\n4: %+v", one, four)
	}
	if one.ContainersMarked == 0 || one.ContainersSwept == 0 || one.IndexOps == 0 {
		t.Fatalf("degenerate sweep dataset: %+v", one)
	}
	t.Logf("sweep speedup at 4 shards = %.2fx (1s %.1fms, 4s %.1fms)", four.Speedup, one.WallMS, four.WallMS)
	if four.Speedup < 1.5 {
		t.Errorf("sweep speedup at 4 shards = %.2fx (1s %.1fms, 4s %.1fms), want >= 1.5x",
			four.Speedup, one.WallMS, four.WallMS)
	}
}
