package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestCatalogueMatchesBenchmarkJSON keeps the names, units, directions
// and bounds in BENCHMARK.json and in the catalogue the same.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if !reflect.DeepEqual(b.Paths, []string{"benchmark"}) || len(b.Command) == 0 {
		t.Fatalf("paths %v command %v", b.Paths, b.Command)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q differs from spec %q", i, w.Name, w.Why, specs[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		c := endToEndMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != better(c.higher) || m.Bound != c.bound {
			t.Errorf("end-to-end %d: %+v differs from catalogue %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalogue", len(b.PerLayer), len(perLayerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range b.PerLayer {
		c := perLayerMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != better(c.higher) {
			t.Errorf("per-layer %d: %+v differs from catalogue %+v", i, m, c)
		}
		if seen[m.Name] {
			t.Errorf("%s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

type contractLine struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value *float64
		Unit  string
	}
}

// runSmoke runs one invocation in-process and parses the contract line.
func runSmoke(t *testing.T, args ...string) (contractLine, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(append([]string{"--smoke"}, args...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out contractLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, out.Correct, out.Attempted, out.Failed, stderr.String())
	}
	return out, stderr.String()
}

// TestSmokeAllWorkloads runs every workload end to end at smoke scale,
// the way the driver invokes it, untraced and traced, and holds the
// metric names and units of the output against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	b := loadBenchmarkJSON(t)
	dir := t.TempDir()
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			set := filepath.Join(dir, w.Name+".jsonl")
			out, _ := runSmoke(t, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", "0", "--out", set)
			if len(out.Metrics) != len(b.EndToEnd) {
				t.Fatalf("%d metrics, want the %d end-to-end ones", len(out.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit || *got.Value <= 0 {
					t.Errorf("end-to-end %s: %+v (must be present, in %s, and never 0)", m.Name, got, m.Unit)
				}
			}

			trace := filepath.Join(dir, w.Name+".trace.json")
			out, _ = runSmoke(t, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", "1", "--trace-out", trace)
			if len(out.Metrics) != len(b.PerLayer) {
				t.Fatalf("%d metrics, want the %d per-layer ones", len(out.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if got, ok := out.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("per-layer %s: %+v", m.Name, got)
				}
			}
			raw, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(raw, &chrome); err != nil || len(chrome.TraceEvents) < 50 {
				t.Fatalf("chrome trace: %d events, %v", len(chrome.TraceEvents), err)
			}

			// A set compared with itself is inside every bound.
			var cmp, stderr bytes.Buffer
			if code := realMain([]string{"-compare", set, set}, &cmp, &stderr); code != 0 {
				t.Fatalf("-compare of a set with itself: exit %d\n%s%s", code, cmp.String(), stderr.String())
			}
		})
	}
}

// TestSameSeedSameCounts: the count metrics depend on the seed alone, and
// another seed also runs clean.
func TestSameSeedSameCounts(t *testing.T) {
	value := func(seed string) (float64, float64) {
		out, _ := runSmoke(t, "--workload", "retention-churn", "--seed", seed, "--seconds", "1")
		return *out.Metrics["stored_per_logical"].Value, *out.Metrics["oss_requests_per_gib"].Value
	}
	s1, _ := value("11")
	s2, _ := value("11")
	if s1 != s2 {
		t.Fatalf("stored_per_logical %v then %v with the same seed", s1, s2)
	}
	if s3, _ := value("12"); s3 == s1 {
		t.Fatalf("stored_per_logical %v for two seeds: the seed does not reach the inputs", s3)
	}
}

func TestCompareFlagsRegressionAndFailure(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, restoreMbps float64, correct bool) string {
		d := document{Workload: "sdb-cpu", Correct: correct, Attempted: 10, EndToEnd: map[string]entry{}}
		for _, m := range endToEndMetrics {
			d.EndToEnd[m.name] = entry{Value: 100}
		}
		d.EndToEnd["restore_latest_mbps"] = entry{Value: restoreMbps}
		path := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			if err := d.appendTo(path); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 100, true)
	run := func(b string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := realMain([]string{"-compare", base, b}, &stdout, &stderr)
		return code, stdout.String() + stderr.String()
	}
	if code, out := run(write("same.jsonl", 95, true)); code != 0 {
		t.Fatalf("5%% slower is inside the bound, got exit %d\n%s", code, out)
	}
	if code, out := run(write("slow.jsonl", 70, true)); code != 1 || !strings.Contains(out, "REGRESSED") {
		t.Fatalf("30%% slower must be flagged, got exit %d\n%s", code, out)
	}
	if code, out := run(write("fast.jsonl", 150, true)); code != 0 {
		t.Fatalf("faster is not a regression, got exit %d\n%s", code, out)
	}
	if code, out := run(write("broken.jsonl", 100, false)); code != 1 || !strings.Contains(out, "FAILED") {
		t.Fatalf("a failed run must be flagged, got exit %d\n%s", code, out)
	}
	if code, _ := run(filepath.Join(dir, "missing.jsonl")); code != 2 {
		t.Fatalf("missing file: exit %d", code)
	}
}

func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sdb-cpu", "--seconds", "0"},
		{"--workload", "sdb-cpu", "--smoke", "--trace-out", "x.json"},
		{"-compare", "only-one"},
		{"--no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestHostSpeedDividedOut: a rep whose reference passes took twice the
// nominal time reports twice the measured CPU-bound throughput and half
// the CPU time and set-up time; on the sleeping store wall time stays as
// measured; without adjustment everything does.
func TestHostSpeedDividedOut(t *testing.T) {
	r := newRep()
	r.refs = []float64{2 * float64(referenceNominal)}
	r.record(kRestoreLatest, 100*mib, time.Second, nil)
	r.backedUp, r.cpu, r.wall = gib, 4*time.Second, 2*time.Second
	reps, setups := []*rep{r}, []setup{{seconds: 1, slow: 2}}
	for _, c := range []struct {
		cloud, adjust                 bool
		mbps, p50, cpu, setup, jobsPS float64
	}{
		{false, true, 200, 500, 2, 0.5, 1},
		{true, true, 100, 1000, 2, 0.5, 0.5},
		{false, false, 100, 1000, 4, 1, 0.5},
	} {
		got := endToEndResults(reps, setups, c.cloud, c.adjust)
		for name, want := range map[string]float64{
			"restore_latest_mbps": c.mbps, "restore_job_p50_ms": c.p50,
			"cpu_s_per_gib": c.cpu, "setup_s": c.setup, "jobs_per_s": c.jobsPS,
		} {
			if got[name].Value != want {
				t.Errorf("cloud=%v adjust=%v: %s = %v, want %v", c.cloud, c.adjust, name, got[name].Value, want)
			}
		}
	}
}

// TestFastSideQuartile: a timing metric reports the quartile of its reps on
// the fast side, so slow reps move it only once they are three in four.
func TestFastSideQuartile(t *testing.T) {
	var reps []*rep
	for _, ms := range []time.Duration{10, 10, 10, 10, 20, 20, 20, 20} { // half the reps hit by a neighbour
		r := newRep()
		r.record(kRestoreLatest, mib, ms*time.Millisecond, nil)
		reps = append(reps, r)
	}
	got := endToEndResults(reps, nil, false, false)
	if v := got["restore_latest_mbps"]; v.Value != 100 || v.Median != 75 {
		t.Errorf("restore_latest_mbps reports %v (median %v), want the upper quartile 100 (75)", v.Value, v.Median)
	}
	if v := got["restore_job_p50_ms"]; v.Value != 10 || v.Median != 15 {
		t.Errorf("restore_job_p50_ms reports %v (median %v), want the lower quartile 10 (15)", v.Value, v.Median)
	}
}
