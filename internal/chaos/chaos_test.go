package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"slimstore/internal/ec"
	"slimstore/internal/oss"
)

// layouts are the repositories the suite runs over: k+m erasure coding,
// shards × replicas of the global index, zero for neither.
var layouts = []struct {
	name                   string
	k, m, shards, replicas int
}{
	{name: "plain"},
	{name: "4+2", k: 4, m: 2},
	{name: "2+2", k: 2, m: 2},
	{name: "4x3", shards: 4, replicas: 3},
	{name: "2x3 over 2+2", k: 2, m: 2, shards: 2, replicas: 3},
}

func options(layout string, seed int64, ops int) Options {
	o := Options{Seed: seed, Ops: ops}
	for _, l := range layouts {
		if l.name == layout {
			o.Layout.ECDataShards, o.Layout.ECParityShards, o.Layout.GlobalShards, o.Layout.GlobalReplicas = l.k, l.m, l.shards, l.replicas
			return o
		}
	}
	panic("no layout " + layout)
}

// gate is an acceptance run, one per family of machinery: 220 mixed
// operations under every fault the layout can draw, zero silent
// corruptions, a repository that heals to a fully restorable state — and a
// schedule that actually exercised what it claims to (exercised names what
// it left untouched).
func gate(t *testing.T, layout string, seed int64, exercised func(*Result) string) {
	t.Parallel()
	o := options(layout, seed, 220)
	o.Log = t.Logf
	res, err := Run(o)
	if err != nil {
		t.Fatalf("invariant violated: %v\nresult: %+v", err, res)
	}
	if res.SilentCorruptions != 0 {
		t.Fatalf("silent corruptions: %+v", res)
	}
	t.Logf("chaos result: %+v", res)

	// The schedule must actually exercise the machinery it claims to.
	if res.Backups == 0 || res.Restores == 0 || res.RangeRestores == 0 || res.Optimizes == 0 ||
		res.Deletes == 0 || res.Scrubs == 0 || res.Sweeps == 0 || res.Storms == 0 {
		t.Fatalf("schedule left an operation type untouched: %+v", res)
	}
	if res.CorruptionsInjected == 0 || res.Crashes == 0 || res.Reboots == 0 {
		t.Fatalf("no faults were injected — the run proved nothing: %+v", res)
	}
	if res.LiveVersions == 0 {
		t.Fatalf("nothing survived to verify after heal: %+v", res)
	}
	if missing := exercised(res); missing != "" {
		t.Fatalf("degenerate schedule, %s: %+v", missing, res)
	}
}

// TestSeededRun: the integrity work — crashes and rot.
func TestSeededRun(t *testing.T) {
	gate(t, "plain", 1, func(*Result) string { return "" })
}

// TestECOutageAndRotUnderConcurrentScrub: the redundancy tier — with up to M
// of K+M backends dark or bit-rotting while restores and a scrub run
// concurrently, every restore stays byte-identical and every stripe returns
// to K+M shards that a fresh encode reproduces (check).
func TestECOutageAndRotUnderConcurrentScrub(t *testing.T) {
	gate(t, "2+2", 5, func(r *Result) string {
		switch {
		case r.Outages == 0 || r.ShardsRotted == 0:
			return "no outages or no shard rot"
		case r.DegradedStripes == 0 || r.RepairedShards == 0:
			return "scrub repaired nothing"
		case r.DegradedReads == 0:
			return "no restore ever took the reconstruction path"
		}
		return ""
	})
}

// TestReplLeaderKillsMidSweep: the replicated index — the leader of every
// shard group killed mid-sweep converges to the fault-free twin's stats,
// index and metadata; a dead quorum fails loudly and the re-sweep is
// idempotent.
func TestReplLeaderKillsMidSweep(t *testing.T) {
	gate(t, "4x3", 1, func(r *Result) string {
		switch {
		case r.LeaderKills < 4 || r.LeaderKills%4 != 0:
			return "leader kills are not one per shard group"
		case r.Failovers < int64(r.LeaderKills):
			return "fewer failovers than kills"
		case r.DowntimeVirtual <= 0:
			return "no virtual downtime charged"
		case r.NoQuorumErrors == 0 || r.Restarts == 0:
			return "no dead quorum met and recovered from"
		}
		return ""
	})
}

// TestSameSeedSameSchedule: a seed fully determines the run, so failures
// are replayable — every counter on the plain layout; elsewhere all but the
// ones concurrent timing feeds (which reads a storm's scrub beat its
// restores to, which index operation of a fanned-out sweep a kill lands
// on). Seed 7 on 2+2 crashes a backup among its overlapping striped payload
// puts, which leaves a timing-dependent set of shards; it replays because a
// crash budget does not count deletes of absent keys (world.Do). Counted,
// the sweep that deletes that set moved a later crash point (about one run
// in fifteen). Other seeds on striped layouts still diverge (ROADMAP).
func TestSameSeedSameSchedule(t *testing.T) {
	for _, layout := range []string{"plain", "2+2", "4x3"} {
		t.Run(layout, func(t *testing.T) {
			if testing.Short() && layout != "plain" {
				t.Skip("duplicate run is slow")
			}
			t.Parallel()
			a, errA := Run(options(layout, 7, 120))
			b, errB := Run(options(layout, 7, 120))
			if errA != nil || errB != nil {
				t.Fatalf("runs failed: %v / %v\n%+v\n%+v", errA, errB, a, b)
			}
			if layout != "plain" {
				for _, r := range []*Result{a, b} {
					r.DegradedReads, r.DegradedStripes, r.RepairedShards, r.Failovers, r.DowntimeVirtual = 0, 0, 0, 0, 0
				}
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed diverged:\n a = %+v\n b = %+v", a, b)
			}
		})
	}
}

// TestSeedSweep runs short schedules of other seeds over every layout:
// different seeds explore different interleavings of crash points, rot,
// outages and kills — seeds 2 and 3 everywhere, 4–7 more on the plain
// layout, where a run is cheapest and replays exactly. Seed 18 there is the
// first deterministic schedule that finds PR 21's double delete in rdCommit
// when that fix is reverted (results/pr28.md).
func TestSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	sweep := func(layout string, seed int64) {
		t.Run(fmt.Sprintf("%s seed %d", layout, seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(options(layout, seed, 80))
			if err != nil {
				t.Fatalf("%v\nresult: %+v", err, res)
			}
			if res.SilentCorruptions != 0 {
				t.Fatalf("silent corruptions: %+v", res)
			}
		})
	}
	for _, l := range layouts {
		sweep(l.name, 2)
		sweep(l.name, 3)
	}
	for seed := int64(4); seed <= 7; seed++ {
		sweep("plain", seed)
	}
	sweep("plain", 18)
}

// TestWriteOnceFires: the layer the runner holds the product to records a
// put over a valid shard of other bytes under ec/, and nothing else — the
// same bytes again, a key outside ec/, a key put again after a delete, a
// shard the harness rotted.
func TestWriteOnceFires(t *testing.T) {
	mem := oss.NewMem()
	l := writeOnce{mem: mem}
	s := oss.With(mem, &l)
	shard := func(obj string) []byte {
		return ec.EncodeShard(ec.ShardHeader{StripeID: 1, K: 1, M: 1, ObjLen: int64(len(obj))}, []byte(obj))
	}
	put := func(key string, b []byte) {
		t.Helper()
		if err := s.Put(key, b); err != nil {
			t.Fatal(err)
		}
	}
	put("ec/b0/containers/C1.data", shard("a"))
	put("ec/b0/containers/C1.data", shard("a"))
	put("repo/header", []byte("x"))
	put("repo/header", []byte("y"))
	put("ec/b0/containers/C2.data", shard("b"))
	if err := s.Delete("ec/b0/containers/C2.data"); err != nil {
		t.Fatal(err)
	}
	put("ec/b0/containers/C2.data", shard("c"))
	rotted := shard("c")
	rotted[ec.HeaderSize] ^= 1
	if err := mem.Put("ec/b0/containers/C2.data", rotted); err != nil {
		t.Fatal(err)
	}
	put("ec/b0/containers/C2.data", shard("c"))
	if err := l.err(); err != nil {
		t.Fatalf("fired on a permitted put: %v", err)
	}
	put("ec/b0/containers/C1.data", shard("b"))
	if err := l.err(); err == nil {
		t.Fatal("a put over other bytes went unrecorded")
	}
}
