package oss

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"slimstore/internal/simclock"
)

// storeUnderTest runs the full Store contract against an implementation.
func storeUnderTest(t testing.TB, s Store) {
	t.Helper()

	// Missing key behaviour.
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	if _, err := s.Head("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Head(missing) = %v, want ErrNotFound", err)
	}
	if err := s.Delete("nope"); err != nil {
		t.Fatalf("Delete(missing) = %v, want nil", err)
	}

	// Round trip. Put does not retain its buffer: the caller overwrites it
	// as soon as Put returns (the pack stage recycles it) and the object
	// still reads back as it was put.
	data := []byte("hello, object storage")
	buf := bytes.Clone(data)
	if err := s.Put("a/b/c", buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xDB
	}
	got, err := s.Get("a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, want %q (did Put keep the caller's buffer?)", got, data)
	}
	n, err := s.Head("a/b/c")
	if err != nil || n != int64(len(data)) {
		t.Fatalf("Head = %d, %v; want %d", n, err, len(data))
	}

	// Overwrite.
	if err := s.Put("a/b/c", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("a/b/c")
	if string(got) != "v2" {
		t.Fatalf("after overwrite Get = %q, want v2", got)
	}

	// Ranges.
	if err := s.Put("r", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off, n int64
		want   string
	}{
		{0, 4, "0123"}, {3, 4, "3456"}, {5, -1, "56789"}, {9, 100, "9"}, {10, 5, ""},
	} {
		got, err := s.GetRange("r", tc.off, tc.n)
		if err != nil {
			t.Fatalf("GetRange(%d,%d): %v", tc.off, tc.n, err)
		}
		if string(got) != tc.want {
			t.Fatalf("GetRange(%d,%d) = %q, want %q", tc.off, tc.n, got, tc.want)
		}
	}
	if _, err := s.GetRange("r", -1, 2); err == nil {
		t.Fatal("GetRange(-1) should fail")
	}
	if _, err := s.GetRange("r", 11, 2); err == nil {
		t.Fatal("GetRange past end should fail")
	}

	// List with prefix, lexicographic order.
	for _, k := range []string{"p/2", "p/1", "q/1", "p/10"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.List("p/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p/1", "p/10", "p/2"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("List(p/) = %v, want %v", keys, want)
	}

	// Delete removes from listing.
	if err := s.Delete("p/10"); err != nil {
		t.Fatal(err)
	}
	keys, _ = s.List("p/")
	if !reflect.DeepEqual(keys, []string{"p/1", "p/2"}) {
		t.Fatalf("List after delete = %v", keys)
	}

	// Odd keys survive escaping.
	odd := "weird key/with spaces/and:colons/..dots"
	if err := s.Put(odd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(odd)
	if err != nil || string(got) != "x" {
		t.Fatalf("odd key round trip failed: %q, %v", got, err)
	}
}

func TestMemStore(t *testing.T) { storeUnderTest(t, NewMem()) }

// retainingStore breaks Put's contract: it keeps the caller's slice and
// serves it back.
type retainingStore struct {
	*Mem
	kept map[string][]byte
}

func (s retainingStore) Put(key string, data []byte) error {
	s.kept[key] = data
	return s.Mem.Put(key, data)
}

func (s retainingStore) Get(key string) ([]byte, error) {
	if b, ok := s.kept[key]; ok {
		return b, nil
	}
	return s.Mem.Get(key)
}

// fatalRecorder is a testing.TB that notes the first Fatal instead of
// failing the test that runs it.
type fatalRecorder struct {
	testing.TB
	msg string
}

func (r *fatalRecorder) Helper() {}
func (r *fatalRecorder) Fatal(args ...any) {
	r.msg = fmt.Sprint(args...)
	runtime.Goexit()
}
func (r *fatalRecorder) Fatalf(format string, args ...any) { r.Fatal(fmt.Sprintf(format, args...)) }

// TestContractCatchesARetainingStore: the contract fails, at its Put
// check, on a store that keeps the buffer it was handed — bare, and seen
// through the layers the product stacks, none of which may mask it.
func TestContractCatchesARetainingStore(t *testing.T) {
	for name, wrap := range map[string]func(Store) Store{
		"bare": func(s Store) Store { return s },
		"layered": func(s Store) Store {
			return NewMetered(NewPrefixed(NewRetry(s, 2, time.Millisecond, nil), "ns"), simclock.DefaultCosts(), simclock.NewAccount())
		},
	} {
		rec := &fatalRecorder{}
		done := make(chan struct{})
		go func() {
			defer close(done)
			storeUnderTest(rec, wrap(retainingStore{NewMem(), map[string][]byte{}}))
		}()
		<-done
		if !strings.Contains(rec.msg, "did Put keep the caller's buffer?") {
			t.Errorf("%s: the contract said %q of a store that retains Put's buffer", name, rec.msg)
		}
	}
}

func TestDiskStore(t *testing.T) {
	s, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeUnderTest(t, s)
}

func TestHTTPStore(t *testing.T) {
	backend := NewMem()
	srv := httptest.NewServer(NewServer(backend))
	defer srv.Close()
	storeUnderTest(t, NewClient(srv.URL, srv.Client()))
}

// TestWrapperStores holds every layer, alone over a Mem, and every
// composition the product builds to the contract of what it wraps
// (Metered over the ec.Router, ec.Store and ec.Router run it from
// contract_ec_test.go).
func TestWrapperStores(t *testing.T) {
	costs := simclock.DefaultCosts()
	srv := httptest.NewServer(NewServer(NewMem()))
	defer srv.Close()
	for name, s := range map[string]Store{
		"Metered":    NewMetered(NewMem(), costs, simclock.NewAccount()),
		"Prefixed":   NewPrefixed(NewMem(), "x"),
		"Retry":      NewRetry(NewMem(), 2, time.Millisecond, func(time.Duration) {}),
		"Faulty":     NewFaulty(NewMem()),
		"Frozen":     NewFrozen(NewMem()),
		"TestLayers": With(NewMem(), &Recorder{}, &Barrier{}, CrashAfter(-1), Sleep(0)),
		"NoLayers":   With(NewMem()),
		"Backend":    NewBackendSet(NewMem(), 3, costs)[1].Store,
		"Namespaced": NewMetered(NewPrefixed(NewMem(), "tenant"), costs, simclock.NewAccount()), // slimstore.NamespacedStore under a repo
		"OpenHTTP":   NewRetry(NewClient(srv.URL, srv.Client()), 4, 0, nil),                     // slimstore.OpenHTTP
	} {
		t.Run(name, func(t *testing.T) { storeUnderTest(t, s) })
	}
}

// TestMemIsolation pins both ownership rules at the one store that shares
// memory: Put copies the caller's buffer, and what Get/GetRange return is a
// capacity-clipped snapshot that no later Put or Delete of the key changes.
func TestMemIsolation(t *testing.T) {
	s := NewMem()
	data := []byte{1, 2, 3, 4}
	s.Put("k", data)
	data[0] = 99
	got, _ := s.Get("k")
	if got[0] != 1 {
		t.Fatal("Put did not copy the caller's buffer")
	}
	mid, _ := s.GetRange("k", 1, 2)
	tail, _ := s.GetRange("k", 2, -1)
	for name, v := range map[string][]byte{"Get": got, "GetRange": mid, "GetRange to end": tail} {
		if cap(v) != len(v) {
			t.Fatalf("%s: cap %d != len %d: an append would write into the stored object", name, cap(v), len(v))
		}
	}
	if &mid[0] != &got[1] {
		t.Fatal("GetRange copied: views of one object should share its memory")
	}

	s.Put("k", []byte{9, 9, 9, 9})
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) || !bytes.Equal(mid, []byte{2, 3}) || !bytes.Equal(tail, []byte{3, 4}) {
		t.Fatalf("a later Put changed earlier views: %v %v %v", got, mid, tail)
	}
	now, _ := s.Get("k")
	s.Delete("k")
	if !bytes.Equal(now, []byte{9, 9, 9, 9}) || !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("Delete changed earlier views: %v %v", now, got)
	}
}

// TestFrozenNamesTheWrittenView: Check is quiet while views are only read
// (Put and Delete of their keys included) and names the key once someone
// writes through one.
func TestFrozenNamesTheWrittenView(t *testing.T) {
	f := NewFrozen(NewMem())
	f.Put("a", []byte("aaaa"))
	f.Put("b", []byte("bbbb"))
	f.Get("a")
	b, _ := f.GetRange("b", 1, 2)
	f.Get("a") // the same view again is recorded once
	if len(f.views) != 2 {
		t.Fatalf("recorded %d views, want 2", len(f.views))
	}
	f.Put("a", []byte("AAAA"))
	f.Delete("b")
	if err := f.Check(); err != nil {
		t.Fatalf("Check after Put/Delete only: %v", err)
	}
	b[0] ^= 0xFF
	err := f.Check()
	if err == nil || !strings.Contains(err.Error(), " b ") {
		t.Fatalf("Check after writing through a view of b: %v", err)
	}
	b[0] ^= 0xFF
	if err := f.Check(); err != nil {
		t.Fatalf("Check after restoring the byte: %v", err)
	}
}

func TestMemConcurrency(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d/k%d", w, i%10)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Get(key); err != nil {
					t.Error(err)
					return
				}
				s.List(fmt.Sprintf("w%d/", w))
			}
		}(w)
	}
	wg.Wait()
}

func TestMeteredAccounting(t *testing.T) {
	costs := simclock.DefaultCosts()
	acct := simclock.NewAccount()
	mem := NewMem()
	s := NewMetered(mem, costs, acct)

	payload := make([]byte, 1<<20)
	if err := s.Put("obj", payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("obj"); err != nil {
		t.Fatal(err)
	}
	io := acct.IO()
	if io.Writes != 1 || io.Reads != 1 {
		t.Fatalf("io counters: %+v", io)
	}
	if io.WriteBytes != 1<<20 || io.ReadBytes != 1<<20 {
		t.Fatalf("io bytes: %+v", io)
	}
	// Time model: latency + size/bandwidth.
	wantRead := costs.OSSRequestLatency + time.Duration(float64(1<<20)/costs.OSSReadBandwidth*float64(time.Second))
	if d := io.ReadTime - wantRead; d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("read time %v, want %v", io.ReadTime, wantRead)
	}

	// Misses are not charged.
	before := acct.IO().Reads
	s.Get("missing")
	if acct.IO().Reads != before {
		t.Fatal("failed Get was charged")
	}

	// A second view charges its own account against the same data.
	acct2 := simclock.NewAccount()
	if _, err := NewMetered(mem, costs, acct2).Get("obj"); err != nil {
		t.Fatal(err)
	}
	if acct2.IO().Reads != 1 || acct.IO().Reads != before {
		t.Fatalf("a second view charged %d reads to its account and %d to the first's", acct2.IO().Reads, acct.IO().Reads-before)
	}
}

func TestMemTotals(t *testing.T) {
	s := NewMem()
	s.Put("containers/1", make([]byte, 100))
	s.Put("containers/2", make([]byte, 50))
	s.Put("recipes/a", make([]byte, 7))
	if got := s.TotalBytes(); got != 157 {
		t.Fatalf("TotalBytes = %d", got)
	}
	if got := s.BytesWithPrefix("containers/"); got != 150 {
		t.Fatalf("BytesWithPrefix = %d", got)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		in     string
		off, n int64
		ok     bool
	}{
		{"bytes=0-3", 0, 4, true},
		{"bytes=5-", 5, -1, true},
		{"bytes=9-9", 9, 1, true},
		{"bytes=-5", 0, 0, false},
		{"bytes=a-b", 0, 0, false},
		{"bytes=5-3", 0, 0, false},
	}
	for _, c := range cases {
		off, n, ok := parseRange(c.in)
		if ok != c.ok || (ok && (off != c.off || n != c.n)) {
			t.Errorf("parseRange(%q) = %d,%d,%v; want %d,%d,%v", c.in, off, n, ok, c.off, c.n, c.ok)
		}
	}
}

// Property: put/get round-trips arbitrary contents across all backends.
func TestQuickRoundTrip(t *testing.T) {
	mem := NewMem()
	disk, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	f := func(data []byte) bool {
		i++
		key := fmt.Sprintf("k/%d", i)
		for _, s := range []Store{mem, disk} {
			if err := s.Put(key, data); err != nil {
				return false
			}
			got, err := s.Get(key)
			if err != nil || !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixedIsolation(t *testing.T) {
	base := NewMem()
	a := NewPrefixed(base, "tenant-a")
	b := NewPrefixed(base, "tenant-b/")

	if err := a.Put("containers/C1", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := b.Put("containers/C1", []byte("beta")); err != nil {
		t.Fatal(err)
	}
	got, err := a.Get("containers/C1")
	if err != nil || string(got) != "alpha" {
		t.Fatalf("tenant-a read = %q, %v", got, err)
	}
	got, _ = b.Get("containers/C1")
	if string(got) != "beta" {
		t.Fatalf("tenant-b read = %q", got)
	}
	// Lists are namespaced and keys come back unprefixed.
	keys, err := a.List("containers/")
	if err != nil || len(keys) != 1 || keys[0] != "containers/C1" {
		t.Fatalf("tenant-a list = %v, %v", keys, err)
	}
	// Physical layout is prefixed.
	phys, _ := base.List("tenant-a/")
	if len(phys) != 1 || phys[0] != "tenant-a/containers/C1" {
		t.Fatalf("physical keys = %v", phys)
	}
}

func TestHTTPOversizePutRejected(t *testing.T) {
	backend := NewMem()
	handler := NewServer(backend)
	handler.SetMaxObjectBytes(1024)
	srv := httptest.NewServer(handler)
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	if err := c.Put("small", make([]byte, 1024)); err != nil {
		t.Fatalf("at-limit put rejected: %v", err)
	}
	err := c.Put("big", make([]byte, 1025))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 413 {
		t.Fatalf("oversize put = %v, want StatusError 413", err)
	}
	// The classifier must treat 413 as permanent: no retry budget burned.
	if IsTransient(err) {
		t.Fatal("413 classified as transient")
	}
	if _, err := backend.Get("big"); !errors.Is(err, ErrNotFound) {
		t.Fatal("oversize object stored anyway")
	}
}

func TestFaultyProbabilisticModes(t *testing.T) {
	mem := NewMem()
	mem.Put("k", bytes.Repeat([]byte("x"), 64))

	// Deterministic: same seed, same fault schedule.
	outcomes := func(seed int64) []bool {
		f := NewFaulty(mem)
		f.SetRand(rand.New(rand.NewSource(seed)))
		f.FailRate(0.3)
		var out []bool
		for i := 0; i < 50; i++ {
			_, err := f.Get("k")
			out = append(out, err == nil)
		}
		return out
	}
	a, b := outcomes(42), outcomes(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault schedules")
	}
	fails := 0
	for _, ok := range a {
		if !ok {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("FailRate(0.3) over %d ops produced %d failures", len(a), fails)
	}

	// CorruptRate flips bytes on some reads without erroring.
	f := NewFaulty(mem)
	f.SetRand(rand.New(rand.NewSource(7)))
	f.CorruptRate(0.5)
	want, _ := mem.Get("k")
	corrupted := 0
	for i := 0; i < 40; i++ {
		got, err := f.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			corrupted++
		}
	}
	if corrupted == 0 || corrupted == 40 {
		t.Fatalf("CorruptRate(0.5) corrupted %d/40 reads", corrupted)
	}

	// Clear disarms the rates.
	f.Clear()
	for i := 0; i < 20; i++ {
		got, err := f.Get("k")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatal("faults survived Clear")
		}
	}
}
