// Package meter holds the measuring instruments of the wall-clock
// benchmark (see ../README.md): an oss.Store wrapper that counts, sleeps
// and traces every request, a span recorder with self-time attribution, a
// byte-comparing restore sink, process CPU/RSS readers, and the order
// statistics every reported number goes through.
//
// Nothing in here knows about workloads; package main composes these
// around calls into the system's public functions.
package meter

import (
	"fmt"
	"math"
	"sort"
)

// Summary is the order statistics of one metric's samples.
type Summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// Spread is the interquartile range as a share of the median — the
// steadiness figure the benchmark contract bounds. Zero when the median
// is zero.
func (s Summary) Spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

// Summarize computes the order statistics of xs. Quartiles follow
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so a
// spread computed here equals the one the benchmark driver computes. With
// fewer than two samples the quartiles collapse onto the median.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sorted(xs)
	out := Summary{N: len(s), Median: medianSorted(s), Min: s[0], Max: s[len(s)-1]}
	out.Q1, out.Q3 = out.Median, out.Median
	if len(s) >= 2 {
		out.Q1, out.Q3 = quartile(s, 1), quartile(s, 3)
	}
	return out
}

// Median returns the median of xs (0 for no samples).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return medianSorted(sorted(xs))
}

// MinBeyond is how many samples must lie beyond a reported percentile:
// a tail read off fewer is one or two outliers, not a distribution.
const MinBeyond = 10

// Percentile returns the p-th percentile (0 < p < 100, nearest rank) of
// xs, refusing when fewer than MinBeyond samples lie beyond it.
func Percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("meter: percentile %v out of (0,100)", p)
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if beyond := len(xs) - rank; beyond < MinBeyond {
		return 0, fmt.Errorf("meter: p%v of %d samples leaves %d beyond it, need %d",
			p, len(xs), beyond, MinBeyond)
	}
	return sorted(xs)[rank-1], nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func medianSorted(s []float64) float64 {
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartile is cut point i (1..3) of the exclusive method over sorted s,
// len(s) >= 2.
func quartile(s []float64, i int) float64 {
	const n = 4
	m := len(s)
	j := i * (m + 1) / n
	if j < 1 {
		j = 1
	}
	if j > m-1 {
		j = m - 1
	}
	delta := float64(i*(m+1) - j*n)
	return (s[j-1]*(n-delta) + s[j]*delta) / n
}
