// Command benchmark is the repository's wall-clock benchmark: it generates
// a workload's inputs from a seed, drives the system through the public
// functions of its packages only, checks every output, and prints every
// metric by name. See README.md in this directory for the workloads, the
// metrics and how to read them; BENCHMARK.json at the repository root
// names this command.
//
//	go run ./benchmark -workload sdb-cpu -seed 1 -seconds 25            # end-to-end metrics
//	go run ./benchmark -workload sdb-cpu -seed 1 -seconds 25 -trace 1   # per-layer metrics
//	go run ./benchmark -compare a.jsonl b.jsonl                         # two result sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"slimstore/benchmark/meter"
)

// minSetups is how many set-up samples a full run takes at least.
const minSetups = 7

// processStart is as close to process start as Go code gets; set-up time
// counts from here.
var processStart = time.Now()

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	out      string
	smoke    bool
}

func main() {
	keepFreedPages()
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// keepFreedPages re-executes the benchmark with GODEBUG=madvdontneed=0
// (unless the caller chose a value), so that memory the Go scavenger hands
// back stays mapped until the kernel needs it (MADV_FREE) instead of being
// unmapped at once (MADV_DONTNEED) and faulted in again by the next
// operation. The in-memory store allocates a copy on every Put and Get, so
// with the default a run takes ~1.2 million page faults — an old-version
// restore one per page it emits — and what a fault costs on a microVM is
// the host's business: it made the memory-bound metrics swing by 2x between
// runs of the same binary (README.md, "Steadiness and noise"). No GC
// setting changes: the heap is collected and paced as by default.
func keepFreedPages() {
	const knob = "madvdontneed="
	old := os.Getenv("GODEBUG")
	if strings.Contains(old, knob) {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	if old != "" {
		old = "," + old
	}
	os.Setenv("GODEBUG", knob+"0"+old)
	// Exec only returns on failure; the run then goes on as it is.
	_ = syscall.Exec(exe, os.Args, os.Environ())
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	var compare bool
	fs.StringVar(&o.workload, "workload", "", "workload to run: sdb-cpu, sdb-cloud, rdata-jobs or retention-churn")
	fs.Int64Var(&o.seed, "seed", 1, "dataset seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 25, "how long to measure: whole repetitions, at least one per dataset of the cycle, until the next would overrun")
	fs.IntVar(&trace, "trace", 0, "1: record spans and print the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: also write the spans as Chrome trace-event JSON to this file")
	fs.StringVar(&o.out, "out", "", "append the full result document (all metrics, spreads, sample counts) to this JSON-lines file")
	fs.BoolVar(&o.smoke, "smoke", false, "shrink the workload to run end to end in about a second (one repetition, same checks)")
	fs.BoolVar(&compare, "compare", false, "compare two result sets written with -out: benchmark -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result-set files")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if o.traceOut != "" && !o.trace {
		fmt.Fprintln(stderr, "benchmark: -trace-out needs -trace 1")
		return 2
	}
	doc, tr, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	doc.table(stderr)
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, tr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if o.out != "" {
		if err := doc.appendTo(o.out); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	if err := json.NewEncoder(stdout).Encode(doc.contractLine()); err != nil {
		return 2
	}
	if !doc.Correct {
		return 1
	}
	return 0
}

// entry is one reported metric: the value — the median of its samples,
// or for an end-to-end timing their fast-side quartile — with the samples'
// count and spread. AsMeasured is an end-to-end metric's value before the
// host's slowdown was divided out of it.
type entry struct {
	Value      float64 `json:"value"`
	AsMeasured float64 `json:"as_measured,omitempty"`
	Unit       string  `json:"unit"`
	Better     string  `json:"better"`
	Bound      float64 `json:"bound,omitempty"`
	Layer      string  `json:"layer,omitempty"`
	Source     string  `json:"source,omitempty"`
	meter.Summary
}

// document is the full result of one invocation, the unit of a result set.
type document struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Smoke     bool             `json:"smoke,omitempty"`
	NumCPU    int              `json:"host_nproc"`
	Procs     int              `json:"gomaxprocs"`
	GoVersion string           `json:"go_version"`
	Reps      int              `json:"reps"`
	Datasets  int              `json:"datasets"`
	RepWallS  meter.Summary    `json:"rep_wall_s"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	EndToEnd  map[string]entry `json:"end_to_end"`
	PerLayer  map[string]entry `json:"per_layer,omitempty"`
}

// runWorkload is one invocation: a warm-up repetition, timed repetitions
// for o.seconds (each after its own timed set-up), and in a traced run
// the replays and the per-layer metrics.
func runWorkload(o options) (*document, *meter.Tracer, error) {
	sp, ok := specByName(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have sdb-cpu, sdb-cloud, rdata-jobs, retention-churn)", o.workload)
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("-seconds must be positive")
	}
	if o.smoke {
		sp = sp.smoke()
	}
	if !sp.cloud {
		// On the free store the workload is CPU-bound, and the shared host
		// does not reliably give this process its second vCPU: after steal
		// on one vCPU the guest kernel stacks both of the runtime's threads
		// on the other for whole runs at a time, and the multi-threaded
		// paths (restore, version-0 ingest) flip between two speeds 1.55x
		// apart for the same CPU time (README.md, "Steadiness and noise").
		// One P measures what this host can measure: CPU cost per byte of
		// each path, not parallel speed-up. The sleeping-store workloads
		// mostly wait, and keep the default.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	x := &runner{spec: sp, seed: o.seed}
	if o.trace {
		x.tr = meter.NewTracer()
		x.root = x.tr.Begin(0, "harness", sp.name)
	}
	doc := &document{
		Workload: sp.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		NumCPU: runtime.NumCPU(), Procs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	// Warm-up: one repetition without the store's sleeps, so pools, page
	// tables and lazy initialisation are paid before anything is timed. Its
	// operations are checked like any other; its timings are discarded.
	var all, reps []*rep
	if !o.smoke {
		r, _ := x.run(0, false)
		all = append(all, r)
	}
	// Timed reps: at least one per dataset of the workload's cycle, then
	// as many more as fit. A traced run leaves part of its time to the
	// replays.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget = budget * 7 / 10
	}
	var store *meter.Store
	for start := time.Now(); ; {
		var r *rep
		r, store = x.run(len(reps), true)
		reps, all = append(reps, r), append(all, r)
		elapsed := time.Since(start)
		if o.smoke || len(reps) >= sp.datasets && elapsed+elapsed/time.Duration(len(reps)) > budget {
			break
		}
	}
	x.tr.End(x.root)
	// Set-up was timed before every rep; a workload with few reps sets up
	// again until enough samples stand behind the median.
	for len(x.setups) < minSetups && !o.smoke {
		if err := x.setUp(reps[len(reps)-1].dataset); err != nil {
			return nil, nil, err
		}
	}

	for _, r := range all {
		doc.Attempted += r.attempted
		doc.Failed += r.failed
	}
	note := func(what string, ok bool) {
		doc.Attempted++
		if !ok {
			doc.Failed++
			fmt.Fprintln(os.Stderr, "benchmark: check failed:", what)
		}
	}
	if !sp.engine { // concurrent clients race for container ids and cache slots
		note("stored bytes, ingest-phase OSS counts and dedup ratio repeat exactly between reps on the same dataset", repeatExactly(all))
	}

	doc.Reps, doc.Datasets = len(reps), min(len(reps), sp.datasets)
	doc.RepWallS = overReps(reps, func(r *rep) float64 { return r.wall.Seconds() })
	e2e := endToEndResults(reps, x.setups, sp.cloud, true)
	measured := endToEndResults(reps, x.setups, sp.cloud, false)
	doc.EndToEnd = make(map[string]entry, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		s, ok := e2e[m.name]
		note("end-to-end metric "+m.name+" is measured and not zero", ok && s.Value > 0)
		doc.EndToEnd[m.name] = entry{Value: s.Value, AsMeasured: measured[m.name].Value,
			Unit: m.unit, Better: better(m.higher), Bound: m.bound, Summary: s.Summary}
	}
	if o.trace {
		replayBudget := time.Duration(0)
		if !o.smoke {
			replayBudget = time.Duration(o.seconds * 0.25 / 32 * float64(time.Second))
		}
		rp := x.replay(store, replayBudget)
		for _, f := range rp.failed {
			note("replay: "+f, false)
		}
		layer := x.perLayerResults(reps, measured, rp)
		doc.PerLayer = make(map[string]entry, len(perLayerMetrics))
		for _, m := range perLayerMetrics {
			s, ok := layer[m.name]
			note("per-layer metric "+m.name+" is computed", ok)
			doc.PerLayer[m.name] = entry{Value: s.Median, Unit: m.unit, Better: better(m.higher),
				Layer: m.layer(), Source: m.source, Summary: s}
		}
	}
	doc.Correct = doc.Failed == 0
	return doc, x.tr, nil
}

// repeatExactly checks the count metrics that must not depend on timing:
// every rep of a one-client workload over the same dataset stores the
// same bytes, eliminates the same duplicates and issues the same
// ingest-phase puts, gets, deletes and lists. Ranged reads are left out:
// the G-node probes the index from several workers at once, and with a
// block cache smaller than the index (retention-churn) which probe finds
// a block cached depends on their interleaving, so kvstore table reads
// wobble by a fraction of a percent.
func repeatExactly(reps []*rep) bool {
	type key [7]int64
	first := make(map[int]key)
	for _, r := range reps {
		c := r.ingest
		k := key{r.stored, r.backup.duplicate, c.Ops[meter.OpPut], c.Ops[meter.OpGet],
			c.Ops[meter.OpDelete], c.Ops[meter.OpList], c.Bytes[meter.OpPut]}
		if want, seen := first[r.dataset]; seen && k != want {
			return false
		}
		first[r.dataset] = k
	}
	return true
}

// contractLine is the one JSON object the benchmark driver reads: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced.
func (d *document) contractLine() map[string]any {
	src := d.EndToEnd
	if d.Trace {
		src = d.PerLayer
	}
	metrics := make(map[string]any, len(src))
	for name, e := range src {
		metrics[name] = map[string]any{"value": e.Value, "unit": e.Unit}
	}
	return map[string]any{
		"correct": d.Correct, "attempted": d.Attempted, "failed": d.Failed, "metrics": metrics,
	}
}

func (d *document) appendTo(path string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// table prints every metric of the run for a human: value, unit,
// direction, sample count and spread.
func (d *document) table(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  %d timed reps (median rep wall %.3fs)  %d operations and checks, %d failed\n",
		d.Workload, d.Seed, d.Reps, d.RepWallS.Median, d.Attempted, d.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tbetter\tbound\tn\tq1\tq3\tmin\tmax\tas measured")
	print := func(m map[string]entry) {
		names := make([]string, 0, len(m))
		for name := range m {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			e := m[name]
			bound := ""
			if e.Bound > 0 {
				bound = fmt.Sprintf("%g%%", e.Bound*100)
			}
			measured := ""
			if e.AsMeasured > 0 {
				measured = fmt.Sprintf("%.6g", e.AsMeasured)
			}
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%s\n",
				name, e.Value, e.Unit, e.Better, bound, e.N, e.Q1, e.Q3, e.Min, e.Max, measured)
		}
	}
	print(d.EndToEnd)
	print(d.PerLayer)
	tw.Flush()
}

func writeTrace(path string, tr *meter.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := meter.WriteChrome(f, tr.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
