package kvstore

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"slimstore/internal/oss"
)

// modelOp is one step of a generated schedule: a batch to Apply (ops
// non-empty), or a Sync, engine Flush, Compact or Close (and a reopen).
type modelOp struct {
	kind string // "apply", "sync", "flush", "compact", "close"
	ops  []modelKV
}

// modelKV is one operation of a batch in a schedule.
type modelKV struct {
	Key, Value []byte
	Delete     bool
}

// genSchedule draws a schedule over a small key space: mostly batches and
// syncs (so WAL segments pile up between flushes), the odd explicit flush,
// compaction and close, deletes among the puts.
func genSchedule(rng *rand.Rand, steps int) []modelOp {
	var out []modelOp
	for i := 0; i < steps; i++ {
		switch r := rng.Intn(100); {
		case r < 50:
			n := 1 + rng.Intn(24)
			ops := make([]modelKV, n)
			for j := range ops {
				ops[j].Key = []byte(fmt.Sprintf("key-%03d", rng.Intn(120)))
				if rng.Intn(5) == 0 {
					ops[j].Delete = true
				} else {
					ops[j].Value = []byte(fmt.Sprintf("v%d.%d-%s", i, j, strings.Repeat("x", rng.Intn(40))))
				}
			}
			out = append(out, modelOp{kind: "apply", ops: ops})
		case r < 89:
			out = append(out, modelOp{kind: "sync"})
		case r < 94:
			out = append(out, modelOp{kind: "flush"})
		case r < 97:
			out = append(out, modelOp{kind: "close"})
		default:
			out = append(out, modelOp{kind: "compact"})
		}
	}
	return out
}

// runSchedule opens a DB over s and plays sched on it until the first
// error. A close step closes the DB and opens the next handle over s, which
// must replay no WAL segment. It returns the last handle, the number of
// batches attempted (a batch whose Apply failed may or may not be durable)
// and the number known durable: those applied before the last Sync, Flush,
// Compact or Close that returned nil.
func runSchedule(t *testing.T, s oss.Store, opts Options, sched []modelOp) (db *DB, attempted, durable int, err error) {
	if db, err = Open(s, opts); err != nil {
		t.Fatal(err)
	}
	for _, op := range sched {
		switch op.kind {
		case "apply":
			var b Batch
			for _, o := range op.ops {
				if o.Delete {
					b.Delete(o.Key)
				} else {
					b.Put(o.Key, o.Value)
				}
			}
			attempted++
			err = db.Apply(&b)
		case "sync":
			err = db.Sync()
		case "flush":
			err = db.Flush()
		case "compact":
			err = db.Compact()
		case "close":
			if err = db.Close(); err == nil {
				if db, err = Open(s, opts); err != nil {
					t.Fatal(err)
				}
				if n := db.Stats().WALReplayed; n != 0 {
					t.Fatalf("the open after a completed Close replayed %d WAL segments", n)
				}
			}
		}
		if err != nil {
			return db, attempted, durable, err
		}
		if op.kind != "apply" {
			durable = attempted
		}
	}
	return db, attempted, durable, nil
}

// prefixStates returns the model's contents after each prefix of sched's
// batches: states[k] is the store after the first k batches.
func prefixStates(sched []modelOp) []map[string]string {
	cur := map[string]string{}
	states := []map[string]string{{}}
	for _, op := range sched {
		if op.kind != "apply" {
			continue
		}
		for _, o := range op.ops {
			if o.Delete {
				delete(cur, string(o.Key))
			} else {
				cur[string(o.Key)] = string(o.Value)
			}
		}
		snap := make(map[string]string, len(cur))
		for k, v := range cur {
			snap[k] = v
		}
		states = append(states, snap)
	}
	return states
}

func scanAll(t *testing.T, db *DB) map[string]string {
	t.Helper()
	got := map[string]string{}
	if err := db.Scan(nil, nil, func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	}); err != nil {
		t.Fatalf("scan: %v", err)
	}
	return got
}

// TestCrashAtEveryMutationMatchesModel runs seeded random schedules of
// Apply, Sync, Flush, Compact and Close-then-reopen — with memtables small
// enough to fill and large enough that only Flush, Compact and Close empty
// them, and one of synced commits alone that the WAL-segment bound
// flushes — and kills the process before every OSS mutation of each. After
// a reopen from the bare store the contents must be exactly the model
// after some prefix of the batches, no shorter than the last batch a Sync,
// flush or completed Close vouched for: a synced batch is never lost, no
// batch is ever half there; and the open after a completed Close replays
// no segment. Every table the recovery and the checks read must be named
// by the manifest, and the recovered store must carry on (more batches, a
// flush, a compaction, another reopen) — a crash's orphaned objects are
// inert.
func TestCrashAtEveryMutationMatchesModel(t *testing.T) {
	var flushes, compactions, closes int64
	for seed := int64(1); seed <= 7; seed++ {
		opts := smallOpts()
		opts.MemtableBytes = 2 << 10
		opts.WALFlushBytes = 1 << 10
		opts.TargetFileBytes = 2 << 10
		opts.L0Threshold = 2
		if seed%2 == 0 || seed == 7 {
			opts.MemtableBytes = 1 << 20 // only Flush, Compact, Close and the WAL bound make tables
			opts.WALFlushBytes = 64 << 10
		}
		sched := genSchedule(rand.New(rand.NewSource(seed)), 90)
		if seed == 7 {
			// Commits only, each batch synced: the WAL-segment bound flushes.
			sched = nil
			for _, op := range genSchedule(rand.New(rand.NewSource(seed)), 4*maxWALSegments) {
				if op.kind == "apply" {
					sched = append(sched, op, modelOp{kind: "sync"})
				}
			}
		}
		states := prefixStates(sched)
		for _, op := range sched {
			if op.kind == "close" {
				closes++
			}
		}

		// Crash before every mutation of the schedule; the run that
		// completes is the uncrashed one, held to the whole model.
		var db *DB
		var attempted, durable int
		oss.CrashAtEvery(t, oss.NewMem(), 1, 5000, func(s oss.Store) error {
			var err error
			db, attempted, durable, err = runSchedule(t, s, opts, sched)
			return err
		}, func(mem *oss.Mem, budget int, err error) bool {
			what := fmt.Sprintf("seed %d budget %d", seed, budget)
			if err == nil {
				if got := scanAll(t, db); !reflect.DeepEqual(got, states[len(states)-1]) {
					t.Fatalf("%s: uncrashed run diverges from the model", what)
				}
				st := db.Stats()
				if seed == 7 && st.Flushes == 0 {
					t.Fatalf("%s: %d synced commits and no flush; the WAL bound never fired", what, len(sched)/2)
				}
				flushes += st.Flushes
				compactions += st.Compactions
				return true
			}
			// The handle dies with the process; reboot from the bare store.
			checkRecovered(t, what, mem, opts, states[durable:attempted+1], durable)
			return false
		})
	}
	if flushes == 0 || compactions == 0 || closes == 0 {
		t.Fatalf("schedules made %d flushes, %d compactions and %d closes; the crash points would be vacuous", flushes, compactions, closes)
	}
}

// checkRecovered reopens mem and asserts the contents equal one of the
// allowed model states (allowed[i] is the model after first+i batches),
// reads only manifest-named tables, and keeps working.
func checkRecovered(t *testing.T, what string, mem *oss.Mem, opts Options, allowed []map[string]string, first int) {
	t.Helper()
	rec := newReqStore(mem)
	db, err := Open(rec.store, opts)
	if err != nil {
		t.Fatalf("%s: reopen: %v", what, err)
	}
	got := scanAll(t, db)
	match := -1
	for i, want := range allowed {
		if reflect.DeepEqual(got, want) {
			match = first + i
		}
	}
	if match < 0 {
		t.Fatalf("%s: recovered %d keys, equal to the model after none of batches %d..%d",
			what, len(got), first, first+len(allowed)-1)
	}
	// Point and batched reads agree with the scan.
	var keys [][]byte
	for i := 0; i < 120; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key-%03d", i)))
	}
	vals, found, err := db.GetMulti(keys)
	if err != nil {
		t.Fatalf("%s: GetMulti: %v", what, err)
	}
	for i, k := range keys {
		want, ok := got[string(k)]
		if found[i] != ok || string(vals[i]) != want {
			t.Fatalf("%s: GetMulti(%s) = %q,%v; scan says %q,%v", what, k, vals[i], found[i], want, ok)
		}
	}

	named := map[string]bool{}
	if b, err := mem.Get(db.manifestKey()); err == nil {
		var man manifest
		if err := json.Unmarshal(b, &man); err != nil {
			t.Fatalf("%s: manifest: %v", what, err)
		}
		for _, tm := range man.Tables {
			named[db.tableKey(tm.Name)] = true
		}
	}
	_, reqs := rec.take()
	for _, r := range reqs {
		if strings.Contains(r.Key, "/sst/") && !named[r.Key] {
			t.Fatalf("%s: recovery issued %s, which the manifest does not name", what, r.Op)
		}
	}

	// The recovered store carries on over whatever the crash orphaned.
	var b Batch
	b.Put([]byte("after-crash"), []byte("1"))
	b.Delete([]byte("key-000"))
	if err := db.Apply(&b); err != nil {
		t.Fatalf("%s: apply after recovery: %v", what, err)
	}
	if err := db.Compact(); err != nil {
		t.Fatalf("%s: compact after recovery: %v", what, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got["after-crash"] = "1"
	delete(got, "key-000")
	db2, err := Open(mem, opts)
	if err != nil {
		t.Fatalf("%s: second reopen: %v", what, err)
	}
	if again := scanAll(t, db2); !reflect.DeepEqual(again, got) {
		t.Fatalf("%s: contents changed across compact + reopen", what)
	}
}

// TestReplayIgnoresSegmentsATableCovers: a flush's WAL deletes land in any
// order, so a crash can leave an older segment behind a newer one that is
// gone. Its records are already in a table; replaying them must not let a
// stale value shadow the table's.
func TestReplayIgnoresSegmentsATableCovers(t *testing.T) {
	mem := oss.NewMem()
	db, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"old", "new"} {
		if err := db.Put([]byte("k"), []byte(v)); err != nil {
			t.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	oldest, err := mem.Get(db.walKey(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// The state a crash inside the delete wave leaves: segment 1 deleted,
	// segment 0 not.
	if err := mem.Put(db.walKey(0), oldest); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := db2.Get([]byte("k")); err != nil || !ok || string(v) != "new" {
		t.Fatalf("Get after reopen = %q, %v, %v; want the flushed value", v, ok, err)
	}
}
