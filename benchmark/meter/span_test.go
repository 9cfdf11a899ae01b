package meter

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50): 40ms, not 30+30.
		{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},
		// A child nested inside an earlier child's interval adds nothing.
		{ID: 4, Parent: 1, Start: 25 * ms, End: 30 * ms},
		// A disjoint child adds its whole length; one running past the
		// parent's end is clipped to it: [90,100) of [90,130).
		{ID: 5, Parent: 1, Start: 60 * ms, End: 70 * ms},
		{ID: 6, Parent: 1, Start: 90 * ms, End: 130 * ms},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 7, Parent: 5, Start: 62 * ms, End: 66 * ms},
	}
	self := SelfTimes(spans)
	want := map[SpanID]time.Duration{
		1: (100 - 40 - 10 - 10) * ms,
		2: 30 * ms, 3: 30 * ms, 4: 5 * ms,
		5: 6 * ms, 6: 40 * ms, 7: 4 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerParentsOperationsAndNilSafety(t *testing.T) {
	var none *Tracer
	if id := none.BeginOp(0, "l", "n"); id != 0 || none.Current() != 0 || none.Spans() != nil {
		t.Fatal("nil tracer recorded something")
	}
	none.SetCurrent(3)
	none.End(3)

	tr := NewTracer()
	root := tr.Begin(0, "harness", "workload")
	op := tr.BeginOp(root, "lnode", "backup")
	tr.SetCurrent(op)
	req := tr.Begin(tr.Current(), "oss", "put containers")
	tr.End(req)
	tr.End(op)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans", len(spans))
	}
	if spans[0].Op != 0 || spans[1].Op != op || spans[2].Op != op || spans[2].Parent != op {
		t.Fatalf("operation ids not inherited: %+v", spans)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name, Ph string
			Ts, Dur  float64
			Tid      int
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	tids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Args["id"] == nil {
			t.Fatalf("bad event %+v", e)
		}
		tids[e.Tid] = true
	}
	if len(tids) != 3 {
		t.Fatalf("nested spans must sit on separate lanes, got tids %v", tids)
	}
}
