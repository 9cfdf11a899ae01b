package oss

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// maxBackoff caps the exponential backoff delay so long retry chains
// degrade to steady polling instead of unbounded sleeps.
const maxBackoff = 10 * time.Second

// Retry wraps a Store with bounded retries and capped, fully-jittered
// exponential backoff for transient failures — production resilience for
// the HTTP backend, whose requests can fail on network blips; the facade's
// OpenHTTP wraps its client in one. Permanent errors (not-found, HTTP 4xx)
// never retry; 5xx and network errors do.
//
// The sleeper is injectable so tests (and the virtual-time harness) avoid
// real sleeping.
type Retry struct {
	Store    // inner seen through Do
	attempts int
	base     time.Duration
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
// exponential backoff starting at base, capped at maxBackoff.
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
	r := &Retry{
		attempts:    attempts,
		base:        base,
		sleep:       sleep,
		rng:         rand.New(rand.NewSource(retrySeq.Add(1))),
		IsTransient: IsTransient,
	}
	r.Store = With(inner, r)
	return r
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

// Do implements Layer: the request is issued until it succeeds, fails
// permanently (not found, 4xx — the caller sees that error as it is) or
// has used its attempts (the last error, wrapped with their number).
func (r *Retry) Do(op Op, next Store) (Op, error) {
	delay := r.base
	for i := 1; ; i++ {
		res, err := Do(next, op)
		if err == nil || !r.IsTransient(err) {
			return res, err
		}
		if i >= r.attempts {
			return res, fmt.Errorf("oss: %s failed after %d attempts: %w", op, r.attempts, err)
		}
		r.sleep(r.jitter(delay))
		delay = min(2*delay, maxBackoff)
	}
}
