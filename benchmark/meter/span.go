package meter

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanID names a recorded span; 0 is "no span".
type SpanID int64

// Span is one traced interval: workload → rep → phase → operation → OSS
// request. Start and End are offsets from the tracer's epoch.
type Span struct {
	ID     SpanID
	Parent SpanID
	// Op is the operation-level ancestor (or the span itself), shared by
	// every span one Backup/Restore/Optimize/job caused; 0 above that level.
	Op    SpanID
	Layer string
	Name  string
	Start time.Duration
	End   time.Duration
}

// Duration is End-Start.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Tracer records spans in memory. A nil *Tracer records nothing, so the
// untraced runs that produce the end-to-end numbers pay one nil check per
// call site. Safe for concurrent use.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	cur   atomic.Int64
}

// NewTracer starts a tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span under parent, inheriting the parent's operation id.
func (t *Tracer) Begin(parent SpanID, layer, name string) SpanID {
	return t.begin(parent, layer, name, false)
}

// BeginOp opens an operation-level span: it and everything below it share
// its id as their operation id.
func (t *Tracer) BeginOp(parent SpanID, layer, name string) SpanID {
	return t.begin(parent, layer, name, true)
}

func (t *Tracer) begin(parent SpanID, layer, name string, op bool) SpanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := SpanID(len(t.spans) + 1)
	sp := Span{ID: id, Parent: parent, Layer: layer, Name: name, Start: now, End: now}
	switch {
	case op:
		sp.Op = id
	case parent > 0:
		sp.Op = t.spans[parent-1].Op
	}
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return id
}

// End closes a span opened by Begin or BeginOp.
func (t *Tracer) End(id SpanID) {
	if t == nil || id <= 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// SetCurrent names the span that OSS requests issued from now on are
// children of: the operation in flight in a serial workload, the phase
// when operations run on goroutines the harness cannot see into.
func (t *Tracer) SetCurrent(id SpanID) {
	if t != nil {
		t.cur.Store(int64(id))
	}
}

// Current returns the span set by SetCurrent.
func (t *Tracer) Current() SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.cur.Load())
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children clipped to the parent, overlaps
// between concurrent children counted once).
func SelfTimes(spans []Span) map[SpanID]time.Duration {
	type iv struct{ a, b time.Duration }
	byID := make(map[SpanID]Span, len(spans))
	kids := make(map[SpanID][]iv)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			kids[p.ID] = append(kids[p.ID], iv{a, b})
		}
	}
	self := make(map[SpanID]time.Duration, len(spans))
	for _, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(i, j int) bool { return ks[i].a < ks[j].a })
		var covered, end time.Duration
		for i, k := range ks {
			if i == 0 || k.a > end {
				covered += k.b - k.a
				end = k.b
			} else if k.b > end {
				covered += k.b - end
				end = k.b
			}
		}
		self[s.ID] = s.Duration() - covered
	}
	return self
}

// chromeEvent is one "complete" (ph=X) event of the Chrome trace-event
// format, loadable in chrome://tracing and ui.perfetto.dev.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// WriteChrome writes spans as Chrome trace-event JSON. Events on one tid
// must nest, so each depth of the span tree gets its own block of lanes
// and concurrent spans of one depth (engine jobs, OSS requests) spread
// over that block's lanes.
func WriteChrome(w io.Writer, spans []Span) error {
	const lanesPerDepth = 64
	depth := make(map[SpanID]int, len(spans))
	ordered := append([]Span(nil), spans...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start < ordered[j].Start })
	for _, s := range spans { // ids ascend with creation, parents first
		depth[s.ID] = depth[s.Parent] + 1
	}
	laneEnd := make(map[int][]time.Duration) // depth → lane → busy until
	events := make([]chromeEvent, 0, len(ordered))
	for _, s := range ordered {
		d := depth[s.ID] - 1
		lanes := laneEnd[d]
		lane := 0
		for lane < len(lanes) && lanes[lane] > s.Start {
			lane++
		}
		if lane == len(lanes) {
			lanes = append(lanes, 0)
		}
		lanes[lane] = s.End
		laneEnd[d] = lanes
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.Duration()) / float64(time.Microsecond),
			Pid: 1, Tid: d*lanesPerDepth + lane%lanesPerDepth,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}
