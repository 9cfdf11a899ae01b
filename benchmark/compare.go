package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"slimstore/benchmark/meter"
)

// readSet loads a result set: the documents -out appended to one file,
// grouped by workload. Traced runs are skipped unless the set holds
// nothing else (comparing an untraced set with a traced one shows the
// tracing overhead on every end-to-end metric).
func readSet(path string) (map[string][]document, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []document
	untraced := false
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d document
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, d)
		untraced = untraced || !d.Trace
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	set := make(map[string][]document)
	for _, d := range docs {
		if d.Trace && untraced {
			continue
		}
		set[d.Workload] = append(set[d.Workload], d)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return set, nil
}

// compareSets prints, per workload × end-to-end metric, both sets'
// medians and run-to-run spreads (interquartile range over median, as the
// benchmark driver computes it), how much worse the second set is than
// the first, and the bound. It returns non-zero if the second median is
// worse by more than the bound, if a spread other than setup_s's exceeds
// it, or if any run failed an operation or check.
func compareSets(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readSet(pathA)
	if err == nil {
		var b map[string][]document
		if b, err = readSet(pathB); err == nil {
			return printComparison(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func printComparison(a, b map[string][]document, w io.Writer) int {
	bad := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian A\tspread A\tn\tmedian B\tspread B\tn\tB worse by\tbound\tverdict")
	for _, sp := range specs {
		da, db := a[sp.name], b[sp.name]
		if len(da) == 0 || len(db) == 0 {
			continue
		}
		for _, d := range append(append([]document(nil), da...), db...) {
			if !d.Correct {
				fmt.Fprintf(tw, "%s\tseed %d: %d of %d operations and checks failed\t\t\t\t\t\t\t\t\t\tFAILED\n",
					d.Workload, d.Seed, d.Failed, d.Attempted)
				bad++
			}
		}
		for _, m := range endToEndMetrics {
			sa, sb := valuesOf(da, m.name), valuesOf(db, m.name)
			worse := 0.0
			if sa.Median != 0 {
				worse = (sb.Median - sa.Median) / sa.Median
				if m.higher {
					worse = -worse
				}
			}
			verdict := "ok"
			switch {
			case worse > m.bound:
				verdict = "REGRESSED"
			case m.name != "setup_s" && (sa.Spread() > m.bound || sb.Spread() > m.bound):
				verdict = "UNSTEADY"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.2f%%\t%d\t%.6g\t%.2f%%\t%d\t%+.2f%%\t%g%%\t%s\n",
				sp.name, m.name, m.unit, sa.Median, sa.Spread()*100, sa.N,
				sb.Median, sb.Spread()*100, sb.N, worse*100, m.bound*100, verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(w, "%d workload x metric pairs outside their bound\n", bad)
		return 1
	}
	return 0
}

// valuesOf summarises one end-to-end metric over the runs of a set.
func valuesOf(docs []document, name string) meter.Summary {
	xs := make([]float64, len(docs))
	for i, d := range docs {
		xs[i] = d.EndToEnd[name].Value
	}
	return meter.Summarize(xs)
}
