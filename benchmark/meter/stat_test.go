package meter

import (
	"math"
	"testing"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	s := Summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 {
		t.Fatalf("got %+v", s)
	}
	if got := s.Spread(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]; two samples
	// extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	if s := Summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Fatalf("three samples: %+v", s)
	}
	if s := Summarize([]float64{1, 2}); s.Q1 != 0.75 || s.Median != 1.5 || s.Q3 != 2.25 {
		t.Fatalf("two samples: %+v", s)
	}
	if s := Summarize([]float64{7}); s.Q1 != 7 || s.Q3 != 7 || s.Spread() != 0 {
		t.Fatalf("one sample: %+v", s)
	}
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("no samples: %+v", s)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p95 of 200: rank 190, exactly 10 beyond.
	if v, err := Percentile(xs, 95); err != nil || v != 190 {
		t.Fatalf("p95 of 200 = %v, %v; want 190", v, err)
	}
	if _, err := Percentile(xs[:199], 95); err == nil {
		t.Fatal("p95 of 199 samples leaves 9 beyond it and must be refused")
	}
	if v, err := Percentile(xs[:20], 50); err != nil || v != 10 {
		t.Fatalf("p50 of 20 = %v, %v; want 10", v, err)
	}
	if _, err := Percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it and must be refused")
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := Percentile(xs, p); err == nil {
			t.Fatalf("percentile %v accepted", p)
		}
	}
}

func TestReferenceTakesMeasurableTime(t *testing.T) {
	if d := Reference(); d <= 0 {
		t.Fatalf("reference pass took %v", d)
	}
}
