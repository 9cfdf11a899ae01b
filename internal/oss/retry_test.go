package oss

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// flaky fails the first n requests, whatever their kind, then passes
// everything through to s.
func flaky(s Store, n int32) Store {
	return With(s, LayerFunc(func(op Op, next Store) (Op, error) {
		if atomic.AddInt32(&n, -1) >= 0 {
			return op, errors.New("transient blip")
		}
		return Do(next, op)
	}))
}

func TestRetryRecoversTransient(t *testing.T) {
	mem := NewMem()
	mem.Put("k", []byte("v"))
	var slept []time.Duration
	r := NewRetry(flaky(mem, 2), 4, 10*time.Millisecond,
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
	var slept []time.Duration
	r := NewRetry(flaky(NewMem(), 100), 10, 2*time.Second, func(d time.Duration) { slept = append(slept, d) })
	r.SetRand(rand.New(rand.NewSource(7)))
	r.Put("k", []byte("v")) // exhausts: uncapped, the ninth delay is drawn from [0, 512 s]
	if len(slept) != 9 {
		t.Fatalf("slept %d times, want 9", len(slept))
	}
	for i, d := range slept {
		if d > maxBackoff {
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
	r, reached := failing(&StatusError{Op: "get", Key: "k", Code: 403})
	_, err := r.Get("k")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 403 {
		t.Fatalf("err = %v, want StatusError 403", err)
	}
	if calls := len(reached.Take()); calls != 1 {
		t.Fatalf("permanent status retried %d times", calls)
	}
}

// sixKinds is one request of each kind.
var sixKinds = []Op{{Kind: KindPut, Key: "k"}, {Kind: KindGet, Key: "k"}, {Kind: KindGetRange, Key: "k", N: 1},
	{Kind: KindHead, Key: "k"}, {Kind: KindDelete, Key: "k"}, {Kind: KindList, Key: "k"}}

// failing is a Retry of three attempts over a store every request to which
// fails with err, and the recorder of what reached it.
func failing(err error) (*Retry, *Recorder) {
	reached := &Recorder{}
	fail := LayerFunc(func(op Op, _ Store) (Op, error) { return op, err })
	return NewRetry(With(NewMem(), reached, fail), 3, time.Millisecond, func(time.Duration) {}), reached
}

// Exhausted retries return the last error wrapped with the request and the
// number of attempts, whatever the kind.
func TestRetryExhausts(t *testing.T) {
	blip := errors.New("transient blip")
	for _, op := range sixKinds {
		r, reached := failing(blip)
		_, err := Do(r, op)
		if !errors.Is(err, blip) || !strings.Contains(err.Error(), op.String()+" failed after 3 attempts") || len(reached.Take()) != 3 {
			t.Errorf("%s: exhausted retries came back as %v", op, err)
		}
	}
}

// A permanent error is returned as it is, after one attempt.
func TestRetryNotFoundIsPermanent(t *testing.T) {
	gone := fmt.Errorf("%w: gone", ErrNotFound)
	for _, op := range sixKinds {
		r, reached := failing(gone)
		if _, err := Do(r, op); err != gone || len(reached.Take()) != 1 {
			t.Errorf("%s: a permanent error came back as %v", op, err)
		}
	}
}

func TestRetryPassthrough(t *testing.T) {
	r := NewRetry(NewMem(), 2, time.Millisecond, func(time.Duration) {})
	storeUnderTest(t, r)
}

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
