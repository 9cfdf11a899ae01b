package leakcheck

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) { Main(m) }

// startFeeder is the shape of a prefetcher's feeder with no stop select:
// a goroutine that sends unconditionally and parks for good the moment its
// consumer walks away.
func startFeeder(ids []int) chan int {
	jobs := make(chan int)
	go func() {
		for _, id := range ids {
			jobs <- id
		}
	}()
	return jobs
}

// startTicker is a loop over a tick channel with no stop edge: a
// time.Ticker's channel is never closed, so nothing ends it. The test
// passes a channel it can close, to let the goroutine go afterwards.
func startTicker(tick <-chan time.Time) {
	go func() {
		n := 0
		for range tick {
			n++
		}
	}()
}

// errorRecorder is a testing.TB that keeps what it is told instead of
// failing the test that runs it.
type errorRecorder struct {
	testing.TB
	errs []string
}

func (r *errorRecorder) Helper()           {}
func (r *errorRecorder) Error(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }

// TestSettledNamesWhoLingers parks one goroutine of each leaking shape,
// holds Settled to reporting exactly those two, each with the function
// that started it, then lets them go and holds it to passing.
func TestSettledNamesWhoLingers(t *testing.T) {
	defer func(old time.Duration) { limit = old }(limit)
	limit = 50 * time.Millisecond

	ids := []int{1, 2, 3}
	jobs := startFeeder(ids)
	tick := make(chan time.Time)
	startTicker(tick)

	rec := &errorRecorder{}
	Settled(rec)
	if len(rec.errs) != 1 {
		t.Fatalf("Settled reported %d errors with two goroutines parked, want 1: %q", len(rec.errs), rec.errs)
	}
	msg := rec.errs[0]
	if !strings.Contains(msg, "2 goroutine(s)") || strings.Count(msg, "\ngoroutine ") != 2 {
		t.Errorf("report does not list exactly the two parked goroutines:\n%s", msg)
	}
	for _, creator := range []string{"leakcheck.startFeeder", "leakcheck.startTicker"} {
		if !strings.Contains(msg, "created by slimstore/internal/"+creator+" ") {
			t.Errorf("report does not name %s as a creator:\n%s", creator, msg)
		}
	}

	for range ids { // the consumer the feeder never had
		<-jobs
	}
	close(tick)
	Settled(t)
}
