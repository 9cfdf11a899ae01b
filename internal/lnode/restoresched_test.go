package lnode

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"slimstore/internal/container"
	"slimstore/internal/core"
	"slimstore/internal/ec"
	"slimstore/internal/leakcheck"
	"slimstore/internal/oss"
)

// These tests pin how a restore schedules its reads (DESIGN.md §10): the
// unit is the request, PrefetchThreads of them in flight whichever
// containers they belong to, long reads cut by a rule that looks at nothing
// but the plan. None reads a clock to decide.

func isDataRead(op oss.Op) bool {
	return (op.Kind == oss.KindGet || op.Kind == oss.KindGetRange) && strings.HasPrefix(op.Key, container.Prefix) && isData(op)
}

// denseFixture backs up one 16 MiB version of random data under the default
// configuration — 4 MiB containers, six read channels — over store: four
// full containers and a short fifth, every one of them read whole, and the
// later ones cut.
func denseFixture(t *testing.T, store oss.Store) (core.Config, []byte) {
	t.Helper()
	cfg := core.DefaultConfig()
	repo, err := core.OpenRepo(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "writer")
	data := genData(7, 16<<20)
	if _, err := n.Backup("f", data); err != nil {
		t.Fatal(err)
	}
	return cfg, data
}

// TestRestoreKeepsItsChannelsFull: at PrefetchThreads 6 a dense 4-container
// version has six data-object requests in flight together — the store holds
// every one back until six wait at once, twice over, so a restore that kept
// fewer in flight would hang — and never a seventh; and among those that
// run together are two ranged reads of one container.
func TestRestoreKeepsItsChannelsFull(t *testing.T) {
	mem := oss.NewMem()
	cfg, data := denseFixture(t, mem)
	probe := newProbe(mem)
	repo, err := core.OpenRepo(probe.store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := New(repo, "l0")

	probe.rec.Take()
	probe.bar.Expect(isDataRead, 6, 6)
	st, err := n.Restore("f", 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.bar.Err(); err != nil || st.Bytes != int64(len(data)) {
		t.Fatalf("restored %d bytes, the two waves of six: %v", st.Bytes, err)
	}
	if _, peak := probe.rec.InFlight(isDataRead); peak != 6 {
		t.Fatalf("%d data-object requests in flight at the peak, want PrefetchThreads = 6", peak)
	}
	// Two pieces of one container open at once.
	overlapped := false
	for _, q := range probe.rec.Requests(isDataRead) {
		_, peak := probe.rec.InFlight(func(op oss.Op) bool { return op.Kind == oss.KindGetRange && op.Key == q.Key })
		overlapped = overlapped || peak > 1
	}
	if !overlapped {
		t.Fatal("no two ranged reads of one container were ever in flight together")
	}
	if reads := len(probe.started(isDataRead)); reads <= st.Cache.ContainersRead {
		t.Fatalf("%d data requests for %d containers: nothing was cut", reads, st.Cache.ContainersRead)
	}
}

// TestColdSmallRestoreOverRottedShard: a cold restore of a 1 MiB version on
// RS(4+2) reads its one container in pieces, and the striped tier serves a
// piece of a rotted shard as it lies. The pieces fail to verify, the read
// falls back to the whole read, which reconstructs around the shard, and
// the restore returns exact bytes.
func TestColdSmallRestoreOverRottedShard(t *testing.T) {
	mem := oss.NewMem()
	cfg := core.DefaultConfig()
	cfg.ECDataShards, cfg.ECParityShards = 4, 2
	data := genData(40, 1<<20)
	if _, err := New(mustOpen(t, mem, cfg), "writer").Backup("f", data); err != nil {
		t.Fatal(err)
	}
	repo := mustOpen(t, mem, cfg)
	ids, err := repo.Containers.List()
	if err != nil || len(ids) != 1 {
		t.Fatalf("fixture: containers %v (%v), want one", ids, err)
	}
	m, err := repo.Containers.ReadMeta(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	key := container.DataKey(m.Payload)
	shard := oss.BackendPrefix(1) + key
	raw, err := mem.Get(shard)
	if err != nil {
		t.Fatal(err)
	}
	raw = bytes.Clone(raw) // a fetched object is read-only
	raw[ec.HeaderSize+len(raw)/2] ^= 0x20
	if err := mem.Put(shard, raw); err != nil {
		t.Fatal(err)
	}

	var rec oss.Recorder
	n := New(mustOpen(t, oss.With(mem, &rec), cfg), "l0") // a cold shared cache
	if err := restoreMatches(n, "f", 0, data); err != nil {
		t.Fatalf("restore over a rotted shard: %v", err)
	}
	// The recorder sits under the tier: it sees shard requests.
	shardReads := func(kind oss.Kind) int {
		return len(rec.Requests(func(op oss.Op) bool { return op.Kind == kind && strings.HasSuffix(op.Key, "/"+key) }))
	}
	if ranged, whole := shardReads(oss.KindGetRange), shardReads(oss.KindGet); ranged < 2 || whole < cfg.ECDataShards {
		t.Fatalf("%d ranged and %d whole shard reads of %s; want the pieces, then the whole read", ranged, whole, key)
	}
}

// reqLog records every data-object request under it and can fail or shorten
// the k-th ranged one.
type reqLog struct {
	store  oss.Store
	rec    oss.Recorder
	ranged atomic.Int64 // ranged data reads seen since the last sorted()
	// Set between restores, never during one:
	failAt int64 // index among them; < 0 = none
	short  bool
}

func newReqLog(inner oss.Store) *reqLog {
	l := &reqLog{failAt: -1}
	l.store = oss.With(inner, &l.rec, oss.LayerFunc(func(op oss.Op, next oss.Store) (oss.Op, error) {
		if op.Kind == oss.KindGetRange && isDataRead(op) && l.ranged.Add(1)-1 == l.failAt {
			if !l.short {
				return op, oss.ErrInjected
			}
			op.N--
		}
		return oss.Do(next, op)
	}))
	return l
}

// sorted returns the data-object requests logged so far as a multiset, and
// forgets them.
func (l *reqLog) sorted() []string {
	l.ranged.Store(0)
	var out []string
	for _, q := range l.rec.Take() {
		if isDataRead(q.Op) {
			out = append(out, q.Op.String())
		}
	}
	sort.Strings(out)
	return out
}

// TestRestoreFailsWholeOnAnyPiece: whichever ranged read of a cut restore
// fails or comes back short, the restore fails with the container and the
// byte range named; when it returns no goroutine of it is left; and the
// shared cache holds whole containers only — never the one with the bad
// piece.
func TestRestoreFailsWholeOnAnyPiece(t *testing.T) {
	mem := oss.NewMem()
	cfg, _ := denseFixture(t, mem)
	log := newReqLog(mem)
	open := func() (*LNode, *core.Repo) {
		repo, err := core.OpenRepo(log.store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return New(repo, "l0"), repo
	}
	n, _ := open()
	if _, err := n.Restore("f", 0, io.Discard); err != nil {
		t.Fatal(err)
	}
	pieces := int(log.ranged.Load())
	log.sorted()
	if pieces < 6 {
		t.Fatalf("fixture: a clean restore issued %d ranged reads; want a cut restore", pieces)
	}

	for _, short := range []bool{false, true} {
		for k := 0; k < pieces; k++ {
			log.failAt, log.short = int64(k), short
			n, repo := open() // a cold shared cache: the same requests every time
			_, err := n.Restore("f", 0, io.Discard)
			log.failAt = -1
			if err == nil {
				t.Fatalf("piece %d (short=%v): the restore succeeded", k, short)
			}
			if short && !errors.Is(err, container.ErrCorrupt) || !short && !errors.Is(err, oss.ErrInjected) {
				t.Fatalf("piece %d (short=%v): %v", k, short, err)
			}
			msg := err.Error()
			named := false
			for _, req := range log.sorted() {
				// "getrange containers/C….data [off,+len)"
				key, rng, _ := strings.Cut(strings.TrimPrefix(req, "getrange "), " ")
				id := strings.TrimSuffix(strings.TrimPrefix(key, "containers/"), ".data")
				named = named || rng != "" && strings.Contains(msg, id) && strings.Contains(msg, rng)
			}
			if !named {
				t.Fatalf("piece %d (short=%v): error %q names no container and byte range that was read", k, short, msg)
			}
			// Everything the restore started has returned: FanOut joins a
			// read's pieces and Prefetcher.Close its containers.
			if leakcheck.Settled(t); t.Failed() {
				t.Fatalf("piece %d (short=%v): goroutines outlive the failed restore", k, short)
			}
			ids, err := repo.Containers.List()
			if err != nil {
				t.Fatal(err)
			}
			// What the shared cache holds after the failure is whole, and
			// none of it is the container whose read failed.
			for _, id := range ids {
				c, ok := repo.RestoreIO.Get(id)
				if !ok {
					continue
				}
				if strings.Contains(msg, id.String()) {
					t.Fatalf("piece %d (short=%v): container %s failed its read and is in the shared cache", k, short, id)
				}
				for i := range c.Meta.Chunks {
					if err := c.VerifyChunk(&c.Meta.Chunks[i]); err != nil {
						t.Fatalf("piece %d (short=%v): shared cache holds a container that is not whole: %v", k, short, err)
					}
				}
			}
		}
	}
}
