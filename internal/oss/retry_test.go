package oss

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// flaky fails the first n calls of each operation, then succeeds.
type flaky struct {
	Store
	failures int32
}

func (f *flaky) Get(key string) ([]byte, error) {
	if atomic.AddInt32(&f.failures, -1) >= 0 {
		return nil, errors.New("transient blip")
	}
	return f.Store.Get(key)
}

func (f *flaky) Put(key string, data []byte) error {
	if atomic.AddInt32(&f.failures, -1) >= 0 {
		return errors.New("transient blip")
	}
	return f.Store.Put(key, data)
}

func TestRetryRecoversTransient(t *testing.T) {
	mem := NewMem()
	mem.Put("k", []byte("v"))
	var slept []time.Duration
	r := NewRetry(&flaky{Store: mem, failures: 2}, 4, 10*time.Millisecond,
		func(d time.Duration) { slept = append(slept, d) })
	r.SetRand(rand.New(rand.NewSource(7)))
	got, err := r.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Two failures → two sleeps, each fully jittered within the
	// exponential envelope.
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v", slept)
	}
	if slept[0] > 10*time.Millisecond || slept[1] > 20*time.Millisecond {
		t.Fatalf("sleeps exceed backoff envelope: %v", slept)
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	mem := NewMem()
	var slept []time.Duration
	r := NewRetry(&flaky{Store: mem, failures: 100}, 10, 100*time.Millisecond,
		func(d time.Duration) { slept = append(slept, d) })
	r.SetMaxBackoff(300 * time.Millisecond)
	r.SetRand(rand.New(rand.NewSource(7)))
	r.Put("k", []byte("v")) // exhausts
	if len(slept) != 9 {
		t.Fatalf("slept %d times, want 9", len(slept))
	}
	for i, d := range slept {
		if d > 300*time.Millisecond {
			t.Fatalf("sleep %d = %v exceeds the cap", i, d)
		}
	}
}

func TestRetryClassifiesHTTPStatus(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
	}{
		{&StatusError{Op: "put", Key: "k", Code: 500}, true},
		{&StatusError{Op: "put", Key: "k", Code: 503}, true},
		{&StatusError{Op: "put", Key: "k", Code: 429}, true},
		{&StatusError{Op: "put", Key: "k", Code: 400}, false},
		{&StatusError{Op: "put", Key: "k", Code: 403}, false},
		{&StatusError{Op: "put", Key: "k", Code: 413}, false},
		{ErrNotFound, false},
		{errors.New("connection reset"), true},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.transient {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.transient)
		}
	}
}

// A 4xx from the server must surface immediately instead of burning the
// retry budget.
func TestRetryDoesNotRetryPermanentStatus(t *testing.T) {
	calls := 0
	bad := &storeFunc{inner: NewMem(), onGet: func() { calls++ }}
	r := NewRetry(&statusFailing{Store: bad, code: 403}, 5, time.Millisecond, func(time.Duration) {})
	_, err := r.Get("k")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 403 {
		t.Fatalf("err = %v, want StatusError 403", err)
	}
	if calls != 1 {
		t.Fatalf("permanent status retried %d times", calls)
	}
}

// statusFailing responds to every Get with an HTTP status error after
// delegating the call count.
type statusFailing struct {
	Store
	code int
}

func (s *statusFailing) Get(key string) ([]byte, error) {
	s.Store.Get(key)
	return nil, &StatusError{Op: "get", Key: key, Code: s.code}
}

func TestRetryExhausts(t *testing.T) {
	mem := NewMem()
	r := NewRetry(&flaky{Store: mem, failures: 100}, 3, time.Millisecond, func(time.Duration) {})
	if err := r.Put("k", []byte("v")); err == nil {
		t.Fatal("exhausted retries did not error")
	}
}

func TestRetryNotFoundIsPermanent(t *testing.T) {
	calls := 0
	mem := NewMem()
	counting := storeFunc{inner: mem, onGet: func() { calls++ }}
	r := NewRetry(&counting, 5, time.Millisecond, func(time.Duration) {})
	_, err := r.Get("missing")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if calls != 1 {
		t.Fatalf("not-found retried %d times", calls)
	}
}

func TestRetryPassthrough(t *testing.T) {
	r := NewRetry(NewMem(), 2, time.Millisecond, func(time.Duration) {})
	storeUnderTest(t, r)
}

// storeFunc counts Get calls.
type storeFunc struct {
	inner Store
	onGet func()
}

func (s *storeFunc) Put(key string, data []byte) error { return s.inner.Put(key, data) }
func (s *storeFunc) Get(key string) ([]byte, error) {
	s.onGet()
	return s.inner.Get(key)
}
func (s *storeFunc) GetRange(key string, off, n int64) ([]byte, error) {
	return s.inner.GetRange(key, off, n)
}
func (s *storeFunc) Head(key string) (int64, error)       { return s.inner.Head(key) }
func (s *storeFunc) Delete(key string) error              { return s.inner.Delete(key) }
func (s *storeFunc) List(prefix string) ([]string, error) { return s.inner.List(prefix) }

func TestFaultyBasics(t *testing.T) {
	mem := NewMem()
	f := NewFaulty(mem)
	if err := f.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	f.FailPut("b")
	if err := f.Put("b", []byte("2")); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed put = %v", err)
	}
	f.FailGet("a")
	if _, err := f.Get("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed get = %v", err)
	}
	f.Clear()
	if _, err := f.Get("a"); err != nil {
		t.Fatalf("cleared get = %v", err)
	}
	f.CorruptReads("a")
	got, err := f.Get("a")
	if err != nil || string(got) == "1" {
		t.Fatalf("corrupted read = %q, %v", got, err)
	}
	if f.Ops() == 0 {
		t.Fatal("ops not counted")
	}
}
