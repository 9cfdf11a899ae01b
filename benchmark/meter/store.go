package meter

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"slimstore/internal/oss"
	"slimstore/internal/simclock"
)

// OpKind is one oss.Store method.
type OpKind int

// The request kinds, in the order Counters.Ops and Counters.Bytes index.
const (
	OpPut OpKind = iota
	OpGet
	OpGetRange
	OpHead
	OpDelete
	OpList
	NumOps
)

var opNames = [NumOps]string{"put", "get", "getrange", "head", "delete", "list"}

// String names the kind as it appears in metric and span names.
func (k OpKind) String() string { return opNames[k] }

// Namespaces are the key prefixes requests are attributed to, in the order
// Counters.NS indexes; the last entry collects everything else.
var Namespaces = []string{"containers", "recipes", "catalog", "simindex", "gidx", "journal", "other"}

func namespaceOf(key string) int {
	for i, ns := range Namespaces[:len(Namespaces)-1] {
		if strings.HasPrefix(key, ns) && len(key) > len(ns) && key[len(ns)] == '/' {
			return i
		}
	}
	return len(Namespaces) - 1
}

// Counters is a snapshot of a Store's request accounting.
type Counters struct {
	Ops    [NumOps]int64
	Bytes  [NumOps]int64 // payload bytes moved (put, get, getrange)
	NS     [7]int64      // requests per entry of Namespaces
	PutNS  [7]int64      // bytes put per entry of Namespaces
	Failed int64
	// Busy sums request durations; Covered is the union of their intervals
	// (time with at least one request in flight). Busy ÷ Covered is the
	// mean number in flight while the store was in use.
	Busy        time.Duration
	Covered     time.Duration
	MaxInflight int
}

// Requests is the total request count.
func (c Counters) Requests() int64 {
	var n int64
	for _, v := range c.Ops {
		n += v
	}
	return n
}

// PutBytesIn is the bytes put under one of Namespaces.
func (c Counters) PutBytesIn(ns string) int64 {
	for i, name := range Namespaces {
		if name == ns {
			return c.PutNS[i]
		}
	}
	return 0
}

// Sub returns c minus an earlier snapshot o. MaxInflight is a high-water
// mark, not a sum, and keeps c's value.
func (c Counters) Sub(o Counters) Counters { return c.plus(o, -1) }

// Add returns the counters of two disjoint intervals taken together.
func (c Counters) Add(o Counters) Counters {
	sum := c.plus(o, 1)
	sum.MaxInflight = max(c.MaxInflight, o.MaxInflight)
	return sum
}

// plus returns c + sign×o for every summed field.
func (c Counters) plus(o Counters, sign int64) Counters {
	for i := range c.Ops {
		c.Ops[i] += sign * o.Ops[i]
		c.Bytes[i] += sign * o.Bytes[i]
	}
	for i := range c.NS {
		c.NS[i] += sign * o.NS[i]
		c.PutNS[i] += sign * o.PutNS[i]
	}
	c.Failed += sign * o.Failed
	c.Busy += time.Duration(sign) * o.Busy
	c.Covered += time.Duration(sign) * o.Covered
	return c
}

// Store wraps an oss.Store the way the harness sees the system's storage
// traffic from outside: every request is counted by kind and key
// namespace, tracked while in flight, recorded as a span when a tracer is
// attached, and — when sleeping is on — really takes the wall time the
// simclock cost model charges for it (request latency plus bytes over the
// per-request read or write bandwidth; every request is its own channel).
// Safe for concurrent use.
type Store struct {
	inner oss.Store
	costs simclock.Costs
	tr    *Tracer
	sleep atomic.Bool

	mu          sync.Mutex
	c           Counters
	inflight    int
	coveredFrom time.Time
}

// NewStore wraps inner. tr may be nil. Sleeping starts off.
func NewStore(inner oss.Store, costs simclock.Costs, tr *Tracer) *Store {
	return &Store{inner: inner, costs: costs, tr: tr}
}

// SetSleep turns the real per-request delays on or off.
func (s *Store) SetSleep(on bool) { s.sleep.Store(on) }

// Counters snapshots the accounting.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// Cost is the modelled duration of one request of kind k moving n bytes —
// the same charge simclock.Account.ChargeRead/ChargeWrite make.
func (s *Store) Cost(k OpKind, n int64) time.Duration {
	bw := s.costs.OSSReadBandwidth
	if k == OpPut || k == OpDelete {
		bw = s.costs.OSSWriteBandwidth
	}
	return s.costs.OSSRequestLatency + time.Duration(float64(n)/bw*float64(time.Second))
}

type inflightReq struct {
	kind  OpKind
	ns    int
	start time.Time
	span  SpanID
}

func (s *Store) begin(k OpKind, key string) inflightReq {
	r := inflightReq{kind: k, ns: namespaceOf(key)}
	if s.tr != nil {
		r.span = s.tr.Begin(s.tr.Current(), "oss", k.String()+" "+Namespaces[r.ns])
	}
	r.start = time.Now()
	s.mu.Lock()
	if s.inflight == 0 {
		s.coveredFrom = r.start
	}
	s.inflight++
	if s.inflight > s.c.MaxInflight {
		s.c.MaxInflight = s.inflight
	}
	s.mu.Unlock()
	return r
}

func (s *Store) end(r inflightReq, n int64, err error) {
	if s.sleep.Load() {
		time.Sleep(s.Cost(r.kind, n))
	}
	now := time.Now()
	s.mu.Lock()
	s.c.Ops[r.kind]++
	s.c.Bytes[r.kind] += n
	s.c.NS[r.ns]++
	if r.kind == OpPut {
		s.c.PutNS[r.ns] += n
	}
	if err != nil {
		s.c.Failed++
	}
	s.c.Busy += now.Sub(r.start)
	s.inflight--
	if s.inflight == 0 {
		s.c.Covered += now.Sub(s.coveredFrom)
	}
	s.mu.Unlock()
	s.tr.End(r.span)
}

// Put implements oss.Store.
func (s *Store) Put(key string, data []byte) error {
	r := s.begin(OpPut, key)
	err := s.inner.Put(key, data)
	s.end(r, int64(len(data)), err)
	return err
}

// Get implements oss.Store.
func (s *Store) Get(key string) ([]byte, error) {
	r := s.begin(OpGet, key)
	v, err := s.inner.Get(key)
	s.end(r, int64(len(v)), err)
	return v, err
}

// GetRange implements oss.Store.
func (s *Store) GetRange(key string, off, n int64) ([]byte, error) {
	r := s.begin(OpGetRange, key)
	v, err := s.inner.GetRange(key, off, n)
	s.end(r, int64(len(v)), err)
	return v, err
}

// Head implements oss.Store.
func (s *Store) Head(key string) (int64, error) {
	r := s.begin(OpHead, key)
	n, err := s.inner.Head(key)
	s.end(r, 0, err)
	return n, err
}

// Delete implements oss.Store.
func (s *Store) Delete(key string) error {
	r := s.begin(OpDelete, key)
	err := s.inner.Delete(key)
	s.end(r, 0, err)
	return err
}

// List implements oss.Store.
func (s *Store) List(prefix string) ([]string, error) {
	r := s.begin(OpList, prefix)
	keys, err := s.inner.List(prefix)
	s.end(r, 0, err)
	return keys, err
}
