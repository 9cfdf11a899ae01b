package oss

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxBackoff caps the exponential backoff delay so long retry
// chains degrade to steady polling instead of unbounded sleeps.
const DefaultMaxBackoff = 10 * time.Second

// Retry wraps a Store with bounded retries and capped, fully-jittered
// exponential backoff for transient failures — production resilience for
// the HTTP backend, whose requests can fail on network blips; the facade's
// OpenHTTP wraps its client in one. Permanent errors (not-found, HTTP 4xx)
// never retry; 5xx and network errors do.
//
// The sleeper is injectable so tests (and the virtual-time harness) avoid
// real sleeping.
type Retry struct {
	inner    Store
	attempts int
	base     time.Duration
	maxDelay time.Duration
	sleep    func(time.Duration)

	jitMu sync.Mutex
	rng   *rand.Rand // jitter source, guarded by jitMu

	// IsTransient classifies retryable errors; the default treats
	// ErrNotFound and HTTP client errors (4xx except 429) as permanent and
	// retries everything else (5xx, network failures).
	IsTransient func(error) bool
}

// retrySeq hands each Retry instance a distinct jitter seed. A process
// counter instead of the wall clock keeps charged paths deterministic
// (same construction order → same jitter sequence) while still
// de-synchronising concurrent retriers within the process; callers that
// want different cross-process spreading inject their own via SetRand.
var retrySeq atomic.Int64

// NewRetry wraps inner with `attempts` total tries (minimum 1) and
// exponential backoff starting at base, capped at DefaultMaxBackoff.
// sleep may be nil for time.Sleep.
func NewRetry(inner Store, attempts int, base time.Duration, sleep func(time.Duration)) *Retry {
	if attempts < 1 {
		attempts = 1
	}
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if sleep == nil {
		sleep = time.Sleep
	}
	return &Retry{
		inner:       inner,
		attempts:    attempts,
		base:        base,
		maxDelay:    DefaultMaxBackoff,
		sleep:       sleep,
		rng:         rand.New(rand.NewSource(retrySeq.Add(1))),
		IsTransient: IsTransient,
	}
}

// SetMaxBackoff overrides the backoff cap.
func (r *Retry) SetMaxBackoff(d time.Duration) {
	if d > 0 {
		r.maxDelay = d
	}
}

// SetRand injects a deterministic jitter source (tests).
func (r *Retry) SetRand(rng *rand.Rand) {
	r.jitMu.Lock()
	r.rng = rng
	r.jitMu.Unlock()
}

// IsTransient is the default error classifier: not-found and HTTP 4xx
// responses (except 429 Too Many Requests) are permanent — retrying a bad
// request only repeats it — while 5xx and network-level errors retry.
func IsTransient(err error) bool {
	if errors.Is(err, ErrNotFound) {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code >= 500 || se.Code == 429
	}
	return true
}

// jitter picks a uniform delay in [0, d] — "full jitter", which spreads
// concurrent retriers instead of synchronising them into waves.
func (r *Retry) jitter(d time.Duration) time.Duration {
	r.jitMu.Lock()
	defer r.jitMu.Unlock()
	if d <= 0 {
		return 0
	}
	return time.Duration(r.rng.Int63n(int64(d) + 1))
}

// do runs op with retries.
func (r *Retry) do(what string, op func() error) error {
	delay := r.base
	var err error
	for i := 0; i < r.attempts; i++ {
		if err = op(); err == nil {
			return nil
		}
		if !r.IsTransient(err) {
			return err // permanent (e.g. not found, 4xx): caller sees it as-is
		}
		if i == r.attempts-1 {
			break
		}
		r.sleep(r.jitter(delay))
		delay *= 2
		if delay > r.maxDelay {
			delay = r.maxDelay
		}
	}
	return fmt.Errorf("oss: %s failed after %d attempts: %w", what, r.attempts, err)
}

// Put implements Store.
func (r *Retry) Put(key string, data []byte) error {
	return r.do("put "+key, func() error { return r.inner.Put(key, data) })
}

// Get implements Store.
func (r *Retry) Get(key string) (b []byte, err error) {
	err = r.do("get "+key, func() error {
		b, err = r.inner.Get(key)
		return err
	})
	return b, err
}

// GetRange implements Store.
func (r *Retry) GetRange(key string, off, n int64) (b []byte, err error) {
	err = r.do("get range "+key, func() error {
		b, err = r.inner.GetRange(key, off, n)
		return err
	})
	return b, err
}

// Head implements Store.
func (r *Retry) Head(key string) (n int64, err error) {
	err = r.do("head "+key, func() error {
		n, err = r.inner.Head(key)
		return err
	})
	return n, err
}

// Delete implements Store.
func (r *Retry) Delete(key string) error {
	return r.do("delete "+key, func() error { return r.inner.Delete(key) })
}

// List implements Store.
func (r *Retry) List(prefix string) (keys []string, err error) {
	err = r.do("list "+prefix, func() error {
		keys, err = r.inner.List(prefix)
		return err
	})
	return keys, err
}
