package ec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// testTier is a tier over a Faulty over the Mem beside it: faults enter
// where a test puts them, the product wraps no backend in an injector.
type testTier struct {
	*Store
	faulty *oss.Faulty
}

// outage takes backend i down or brings it back.
func (t testTier) outage(i int, down bool) { t.faulty.SetOutage(oss.BackendPrefix(i), down) }

func newTestTier(t *testing.T, k, m int) (testTier, *oss.Mem) {
	t.Helper()
	mem := oss.NewMem()
	faulty := oss.NewFaulty(mem)
	set := oss.NewBackendSet(faulty, k+m, simclock.DefaultCosts())
	s, err := NewStore(set, k, m, simclock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	return testTier{s, faulty}, mem
}

func shardKey(i int, key string) string { return oss.BackendPrefix(i) + key }

func TestStorePutGetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, g := range [][2]int{{1, 2}, {2, 1}, {4, 2}} {
		s, mem := newTestTier(t, g[0], g[1])
		for _, n := range []int{0, 1, 100, 4096, 100_000} {
			key := "containers/obj.data"
			data := make([]byte, n)
			rng.Read(data)
			if err := s.Put(key, data); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get(key)
			if err != nil {
				t.Fatalf("RS(%d+%d) n=%d: %v", g[0], g[1], n, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("RS(%d+%d) n=%d: round trip mismatch", g[0], g[1], n)
			}
			// One shard object must exist on every backend.
			for i := 0; i < g[0]+g[1]; i++ {
				if _, err := mem.Get(shardKey(i, key)); err != nil {
					t.Fatalf("backend %d missing its shard: %v", i, err)
				}
			}
		}
		if st := s.Stats(); st.DegradedReads != 0 {
			t.Fatalf("healthy round trips counted %d degraded reads", st.DegradedReads)
		}
	}
}

func TestStoreGetNotFound(t *testing.T) {
	s, _ := newTestTier(t, 2, 1)
	if _, err := s.Get("containers/nope.data"); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := s.Head("containers/nope.data"); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("Head: want ErrNotFound, got %v", err)
	}
	if _, err := s.Check("containers/nope.data"); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("Check: want ErrNotFound, got %v", err)
	}
	// An outage within the tier's tolerance must not turn the "not found" a
	// reader is prepared for (a restore whose home container was compacted
	// away) into a failure: a written object would still show a shard.
	s.outage(0, true)
	if _, err := s.Get("containers/nope.data"); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("one backend dark: want ErrNotFound, got %v", err)
	}
	s.outage(1, true)
	if _, err := s.Get("containers/nope.data"); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("two backends dark: nobody can say, want ErrInsufficient, got %v", err)
	}
}

// TestStoreDegradedReads kills every ≤M subset of backends in turn and
// requires byte-identical reads, then one extra backend and requires a
// loud ErrInsufficient.
func TestStoreDegradedReads(t *testing.T) {
	const k, m = 4, 2
	s, _ := newTestTier(t, k, m)
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 50_000)
	rng.Read(data)
	key := "containers/c1.data"
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	n := k + m
	for mask := 0; mask < 1<<n; mask++ {
		var down []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				down = append(down, i)
			}
		}
		for _, i := range down {
			s.outage(i, true)
		}
		got, err := s.Get(key)
		if len(down) <= m {
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("down=%v: err=%v equal=%v", down, err, err == nil && bytes.Equal(got, data))
			}
		} else if !errors.Is(err, ErrInsufficient) {
			t.Fatalf("down=%v (> M): want ErrInsufficient, got %v", down, err)
		}
		for _, i := range down {
			s.outage(i, false)
		}
	}
	if st := s.Stats(); st.DegradedReads == 0 || st.ReconstructedShards == 0 {
		t.Fatalf("outage reads did not count as degraded: %+v", st)
	}
}

// TestStoreShardRot flips bytes inside shard objects (payload and header)
// and requires transparent reconstruction up to M rotted shards.
func TestStoreShardRot(t *testing.T) {
	const k, m = 3, 2
	s, mem := newTestTier(t, k, m)
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 20_000)
	rng.Read(data)
	key := "containers/rot.data"
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	rot := func(i int, off int) {
		raw, err := mem.Get(shardKey(i, key))
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.Clone(raw) // a Get result is read-only
		raw[off] ^= 0xFF
		if err := mem.Put(shardKey(i, key), raw); err != nil {
			t.Fatal(err)
		}
	}
	rot(0, HeaderSize+10) // payload rot
	rot(3, 8)             // header rot (stripe ID)
	got, err := s.Get(key)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("2 rotted shards: err=%v", err)
	}
	// A third rotted shard exceeds M.
	rot(1, HeaderSize)
	if _, err := s.Get(key); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("3 rotted shards: want ErrInsufficient, got %v", err)
	}
}

// TestStoreUnavailableIsNotDamage: a stripe short of K shards is
// ErrInsufficient either way, and ErrUnavailable exactly when reads that
// failed on the way — not rot, not absence — kept it short: a backend dark,
// a transient fault. Scrub quarantines the one and not the other.
func TestStoreUnavailableIsNotDamage(t *testing.T) {
	const k, m = 2, 1
	s, mem := newTestTier(t, k, m)
	key := "containers/u.data"
	if err := s.Put(key, bytes.Repeat([]byte("slim"), 1000)); err != nil {
		t.Fatal(err)
	}
	rot := func(i int) {
		raw := bytes.Clone(mustGetShard(t, mem, shardKey(i, key)))
		raw[HeaderSize] ^= 0xFF
		if err := mem.Put(shardKey(i, key), raw); err != nil {
			t.Fatal(err)
		}
	}
	get := func(what string, unavailable bool) {
		t.Helper()
		_, err := s.Get(key)
		if !errors.Is(err, ErrInsufficient) || errors.Is(err, ErrUnavailable) != unavailable {
			t.Fatalf("%s: %v, want ErrInsufficient, ErrUnavailable %v", what, err, unavailable)
		}
	}
	s.outage(0, true)
	s.outage(1, true)
	get("two of three dark", true)
	s.outage(1, false)
	rot(1)
	get("one dark, one rotted", true)
	s.outage(0, false)
	rot(0)
	get("two rotted", false)
}

func mustGetShard(t *testing.T, mem *oss.Mem, key string) []byte {
	t.Helper()
	raw, err := mem.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestStoreGetRange(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {3, 2}, {4, 2}} {
		s, _ := newTestTier(t, g[0], g[1])
		rng := rand.New(rand.NewSource(5))
		data := make([]byte, 10_000)
		rng.Read(data)
		key := "containers/r.data"
		if err := s.Put(key, data); err != nil {
			t.Fatal(err)
		}
		cases := [][2]int64{{0, 10}, {0, 10_000}, {9_990, 10}, {2_400, 3_000}, {5_000, -1}, {0, 0}, {10_000, 5}}
		for _, c := range cases {
			got, err := s.GetRange(key, c[0], c[1])
			if err != nil {
				t.Fatalf("RS(%d+%d) range %v: %v", g[0], g[1], c, err)
			}
			end := int64(len(data))
			if c[1] >= 0 && c[0]+c[1] < end {
				end = c[0] + c[1]
			}
			if !bytes.Equal(got, data[c[0]:end]) {
				t.Fatalf("RS(%d+%d) range %v: content mismatch (%d bytes)", g[0], g[1], c, len(got))
			}
		}
		if _, err := s.GetRange(key, 10_001, 5); err == nil {
			t.Fatal("offset past end must error")
		}
		// Degraded ranged read: kill a backend holding a covering shard;
		// the fallback must still return exact bytes.
		s.outage(0, true)
		got, err := s.GetRange(key, 10, 50)
		if err != nil || !bytes.Equal(got, data[10:60]) {
			t.Fatalf("RS(%d+%d) degraded range: err=%v", g[0], g[1], err)
		}
		s.outage(0, false)
	}
}

func TestStoreHeadDeleteList(t *testing.T) {
	s, mem := newTestTier(t, 2, 2)
	keys := []string{"containers/a.data", "containers/a.meta", "containers/b.data"}
	for i, k := range keys {
		if err := s.Put(k, bytes.Repeat([]byte{byte(i)}, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Head(keys[1]); err != nil || n != 101 {
		t.Fatalf("Head = %d, %v; want 101", n, err)
	}
	got, err := s.List("containers/")
	if err != nil || !reflect.DeepEqual(got, keys) {
		t.Fatalf("List = %v, %v", got, err)
	}
	// One backend down: listing still sees every stripe.
	s.outage(3, true)
	if got, err = s.List("containers/"); err != nil || !reflect.DeepEqual(got, keys) {
		t.Fatalf("List with outage = %v, %v", got, err)
	}
	// Delete during an outage fails loudly (no resurrectable shards left
	// behind silently)…
	if err := s.Delete(keys[0]); err == nil {
		t.Fatal("delete during outage must fail")
	}
	s.outage(3, false)
	// …and succeeds after the heal, clearing every backend.
	if err := s.Delete(keys[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := mem.Get(shardKey(i, keys[0])); !errors.Is(err, oss.ErrNotFound) {
			t.Fatalf("backend %d still holds a deleted shard", i)
		}
	}
	if _, err := s.Get(keys[0]); !errors.Is(err, oss.ErrNotFound) {
		t.Fatalf("deleted object still readable: %v", err)
	}
}

// TestStoreRepair damages shards every way the scrub can meet them —
// missing object, rotted payload, whole-backend outage — and checks
// Repair rewrites byte-identical shard objects.
func TestStoreRepair(t *testing.T) {
	const k, m = 4, 2
	s, mem := newTestTier(t, k, m)
	rng := rand.New(rand.NewSource(6))
	data := make([]byte, 30_000)
	rng.Read(data)
	key := "containers/rep.data"
	if err := s.Put(key, data); err != nil {
		t.Fatal(err)
	}
	pristine := make(map[int][]byte)
	for i := 0; i < k+m; i++ {
		raw, err := mem.Get(shardKey(i, key))
		if err != nil {
			t.Fatal(err)
		}
		pristine[i] = raw
	}

	// Healthy stripe: Check reports full redundancy, Repair is a no-op.
	h, err := s.Check(key)
	if err != nil || h.Present != k+m || len(h.Bad) != 0 || !h.Recoverable {
		t.Fatalf("healthy Check = %+v, %v", h, err)
	}
	if n, err := s.Repair(key); err != nil || n != 0 {
		t.Fatalf("healthy Repair = %d, %v", n, err)
	}

	// Damage two shards: delete one, rot another.
	if err := mem.Delete(shardKey(1, key)); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), pristine[4]...)
	raw[HeaderSize+5] ^= 0x55
	if err := mem.Put(shardKey(4, key), raw); err != nil {
		t.Fatal(err)
	}
	h, err = s.Check(key)
	if err != nil || h.Present != k+m-2 || !reflect.DeepEqual(h.Bad, []int{1, 4}) || !h.Recoverable {
		t.Fatalf("degraded Check = %+v, %v", h, err)
	}
	if n, err := s.Repair(key); err != nil || n != 2 {
		t.Fatalf("Repair = %d, %v", n, err)
	}
	for i := 0; i < k+m; i++ {
		raw, err := mem.Get(shardKey(i, key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, pristine[i]) {
			t.Fatalf("repaired shard %d is not byte-identical to the original", i)
		}
	}

	// Repair with a backend down rewrites what it can and reports the
	// rest.
	if err := mem.Delete(shardKey(2, key)); err != nil {
		t.Fatal(err)
	}
	if err := mem.Delete(shardKey(3, key)); err != nil {
		t.Fatal(err)
	}
	s.outage(3, true)
	n, err := s.Repair(key)
	if n != 1 || err == nil {
		t.Fatalf("partial repair = %d, %v; want 1 shard and an error", n, err)
	}
	s.outage(3, false)
	if n, err = s.Repair(key); n != 1 || err != nil {
		t.Fatalf("post-heal repair = %d, %v", n, err)
	}
	if !bytes.Equal(mustGet(t, mem, shardKey(3, key)), pristine[3]) {
		t.Fatal("post-heal repaired shard differs")
	}

	// Beyond M losses: Repair refuses loudly.
	for i := 0; i < m+1; i++ {
		if err := mem.Delete(shardKey(i, key)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Repair(key); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("unrecoverable Repair: want ErrInsufficient, got %v", err)
	}
}

// TestStoreStaleGeneration: a shard of another object under the key — an
// earlier write's, resurrected — is an erasure of the object the first valid
// header describes. In slot 1 that is the live object: reads serve it and
// Repair rewrites the foreign shard. In slot 0 the foreign shard's header is
// the first, so the K+M−1 live shards disagree with it and the key is loud —
// ErrInsufficient naming it, on read, check and repair — never the old bytes.
// A key is written once, so only damage at rest can put a well-formed
// foreign shard there (DESIGN §12).
func TestStoreStaleGeneration(t *testing.T) {
	const k, m = 2, 2
	for _, slot := range []int{0, 1} {
		s, mem := newTestTier(t, k, m)
		key := "containers/gen.data"
		v1 := bytes.Repeat([]byte("one"), 500)
		v2 := bytes.Repeat([]byte("twotwo"), 400)
		if err := s.Put(key, v1); err != nil {
			t.Fatal(err)
		}
		old := mustGet(t, mem, shardKey(slot, key))
		if err := s.Put(key, v2); err != nil {
			t.Fatal(err)
		}
		fresh := mustGet(t, mem, shardKey(slot, key))
		if err := mem.Put(shardKey(slot, key), old); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(key)
		h, cerr := s.Check(key)
		if slot == 0 {
			_, rerr := s.Repair(key)
			for _, err := range []error{err, rerr} {
				if !errors.Is(err, ErrInsufficient) || !strings.Contains(err.Error(), key) {
					t.Fatalf("foreign shard in slot 0: %v, want ErrInsufficient naming %s", err, key)
				}
			}
			if cerr != nil || h.Present != 1 || h.Recoverable {
				t.Fatalf("Check with a foreign shard in slot 0 = %+v, %v", h, cerr)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, v2) {
			t.Fatalf("read with a foreign shard: err=%v, served the old object=%v", err, bytes.Equal(got, v1))
		}
		if cerr != nil || h.Present != k+m-1 || !reflect.DeepEqual(h.Bad, []int{slot}) {
			t.Fatalf("Check with a foreign shard = %+v, %v", h, cerr)
		}
		if n, err := s.Repair(key); err != nil || n != 1 {
			t.Fatalf("Repair = %d, %v", n, err)
		}
		if !bytes.Equal(mustGet(t, mem, shardKey(slot, key)), fresh) {
			t.Fatal("repair did not restore the object's shard")
		}
	}
}

// TestStoreTornRewrite: an overwrite interrupted after a of K+M shard puts
// leaves a shards of the new object beside K+M−a of the old — what the
// product never does, since a key is written once. The objects are what a
// container meta is: same length before and after and ending in the
// CRC-32C of everything before, so the CRC-32C of the whole is the
// polynomial's residue whatever the contents — under envelope version 1 the
// two sides looked like one object and were joined. For every geometry and
// every split the read serves the object shard 0 belongs to, whole, when it
// has K shards, and is otherwise loud — ErrInsufficient naming the key —
// and never mixed bytes.
func TestStoreTornRewrite(t *testing.T) {
	selfSummed := func(seed int64) []byte {
		b := make([]byte, 1018)
		rand.New(rand.NewSource(seed)).Read(b[:len(b)-4])
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
		if crc32.Checksum(b, crcTable) != 0x48674BC7 {
			t.Fatal("a CRC-32C-trailed object must sum to the residue")
		}
		return b
	}
	before, after := selfSummed(1), selfSummed(2)
	const key = "containers/C0000000000000009.meta"
	for k := 1; k <= 4; k++ {
		for m := 1; m <= 2; m++ {
			n := k + m
			for a := 0; a <= n; a++ {
				s, mem := newTestTier(t, k, m)
				s2, mem2 := newTestTier(t, k, m)
				if err := errors.Join(s.Put(key, before), s2.Put(key, after)); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < a; i++ {
					if err := mem.Put(shardKey(i, key), mustGet(t, mem2, shardKey(i, key))); err != nil {
						t.Fatal(err)
					}
				}
				want, have := before, n
				if a > 0 {
					want, have = after, a
				}
				got, err := s.Get(key)
				if have < k {
					if !errors.Is(err, ErrInsufficient) || !strings.Contains(err.Error(), key) {
						t.Fatalf("RS(%d+%d) torn %d/%d: got %d bytes and %v, want ErrInsufficient naming %s", k, m, a, n-a, len(got), err, key)
					}
					continue
				}
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("RS(%d+%d) torn %d/%d: err=%v, did not serve shard 0's object whole", k, m, a, n-a, err)
				}
			}
		}
	}
}

// TestStoreAccounting pins the metering contract: per-shard I/O lands on
// the view's account under each backend's cost model, and degraded reads
// charge PhaseECReconstruct CPU.
func TestStoreAccounting(t *testing.T) {
	const k, m = 2, 1
	base, _ := newTestTier(t, k, m)
	acct := simclock.NewAccount()
	s := base.WithAccount(acct)
	data := make([]byte, 10_000)
	if err := s.Put("containers/x.data", data); err != nil {
		t.Fatal(err)
	}
	io := acct.IO()
	if io.Writes != int64(k+m) {
		t.Fatalf("Put charged %d writes, want %d", io.Writes, k+m)
	}
	perShard := int64(base.Codec().ShardSize(len(data)) + Overhead)
	if io.WriteBytes != int64(k+m)*perShard {
		t.Fatalf("Put charged %d write bytes, want %d", io.WriteBytes, int64(k+m)*perShard)
	}
	if cpu := acct.CPUPhase(simclock.PhaseECReconstruct); cpu <= 0 {
		t.Fatal("parity generation charged no EC CPU")
	}

	acct.Reset()
	if _, err := s.Get("containers/x.data"); err != nil {
		t.Fatal(err)
	}
	if io = acct.IO(); io.Reads != int64(k) {
		t.Fatalf("healthy Get charged %d reads, want %d", io.Reads, k)
	}
	if acct.CPUPhase(simclock.PhaseECReconstruct) != 0 {
		t.Fatal("healthy Get charged reconstruction CPU")
	}

	acct.Reset()
	base.outage(0, true)
	if _, err := s.Get("containers/x.data"); err != nil {
		t.Fatal(err)
	}
	if acct.CPUPhase(simclock.PhaseECReconstruct) <= 0 {
		t.Fatal("degraded Get charged no reconstruction CPU")
	}
	// The unmetered base view shares stats but charges nothing.
	if _, err := base.Get("containers/x.data"); err != nil {
		t.Fatal(err)
	}
	if st := base.Stats(); st.DegradedReads != 2 {
		t.Fatalf("views do not share stats: %+v", st)
	}

	// The frontier at matched fault tolerance: RS(4+2) writes fewer
	// physical bytes than (1+2)-replication and at most 10% over the
	// (K+M)/K ideal, and a Get with all M backends dark is charged at most
	// 3x the virtual time of a healthy one.
	payload := make([]byte, 512<<10)
	measure := func(k, m int) (physical int64, healthy, degraded time.Duration) {
		tier, _ := newTestTier(t, k, m)
		acct := simclock.NewAccount()
		s := tier.WithAccount(acct)
		if err := s.Put("containers/y.data", payload); err != nil {
			t.Fatal(err)
		}
		physical = acct.IO().WriteBytes
		get := func() time.Duration {
			acct.Reset()
			if _, err := s.Get("containers/y.data"); err != nil {
				t.Fatal(err)
			}
			return acct.ElapsedSequential()
		}
		healthy = get()
		for i := 0; i < m; i++ {
			tier.outage(i, true)
		}
		return physical, healthy, get()
	}
	rs, healthy, degraded := measure(4, 2)
	rep3, _, _ := measure(1, 2)
	if ideal := int64(len(payload)) * (4 + 2) / 4; rs >= rep3 || 10*rs > 11*ideal {
		t.Errorf("RS(4+2) wrote %d physical bytes: want below (1+2)-replication's %d and within 10%% of %d", rs, rep3, ideal)
	}
	if healthy <= 0 || degraded > 3*healthy {
		t.Errorf("degraded Get charged %v, healthy %v, want at most 3x", degraded, healthy)
	}
}

func TestRouter(t *testing.T) {
	mem := oss.NewMem()
	set := oss.NewBackendSet(mem, 3, simclock.DefaultCosts())
	tier, err := NewStore(set, 2, 1, simclock.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(tier, mem, ".data", "containers/", "quarantine/")
	for _, key := range []string{"containers/c.data", "containers/c.meta", "recipes/f/1"} {
		if err := r.Put(key, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}
	// The striped key must not exist as a plain base object; the plain keys
	// — a meta beside its payload among them — must.
	if _, err := mem.Get("containers/c.data"); !errors.Is(err, oss.ErrNotFound) {
		t.Fatal("routed key leaked to the plain store")
	}
	if _, err := mem.Get("ec/b0/containers/c.data"); err != nil {
		t.Fatalf("striped shard missing: %v", err)
	}
	for _, key := range []string{"containers/c.meta", "recipes/f/1"} {
		if _, err := mem.Get(key); err != nil {
			t.Fatalf("plain key missing: %v", err)
		}
	}
	if _, err := mem.Get("ec/b0/containers/c.meta"); !errors.Is(err, oss.ErrNotFound) {
		t.Fatal("a meta was striped")
	}
	for _, key := range []string{"containers/c.data", "containers/c.meta", "recipes/f/1"} {
		if got, err := r.Get(key); err != nil || string(got) != key {
			t.Fatalf("router Get %s: %q, %v", key, got, err)
		}
	}
	// A listing merges both sides and hides physical shard keys.
	keys, err := r.List("")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"containers/c.data", "containers/c.meta", "recipes/f/1"}) {
		t.Fatalf("merged List = %v", keys)
	}
	for _, prefix := range []string{"containers/", "containers/c"} {
		if keys, err = r.List(prefix); err != nil || !reflect.DeepEqual(keys, []string{"containers/c.data", "containers/c.meta"}) {
			t.Fatalf("List(%q) = %v, %v", prefix, keys, err)
		}
	}
	if err := r.Delete("containers/c.data"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("containers/c.data"); !errors.Is(err, oss.ErrNotFound) {
		t.Fatal("routed delete did not take")
	}
}

func mustGet(t *testing.T, mem *oss.Mem, key string) []byte {
	t.Helper()
	b, err := mem.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
