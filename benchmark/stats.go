package main

import (
	"math"
	"sort"
)

// summary is how every repeated measurement is reported: Value is the
// metric's value, the median of the samples; min, max and the sample count
// say how much to trust it.
type summary struct {
	Value, Min, Max float64
	N               int
}

func summarize(vs []float64) summary {
	if len(vs) == 0 {
		return summary{}
	}
	s := sortedCopy(vs)
	return summary{Value: medianSorted(s), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// floorOf summarizes a measurement whose noise only ever adds: its value is
// the smallest sample.
func floorOf(vs []float64) summary {
	s := summarize(vs)
	s.Value = s.Min
	return s
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return medianSorted(sortedCopy(vs))
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileSorted is the nearest-rank percentile: the smallest sample with
// at least a share p of the samples at or below it.
func percentileSorted(s []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailLadder are the percentiles a latency tail is reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailPercentile is the highest ladder percentile with at least ten samples
// beyond it: a p99 of 300 samples rests on three values, which is noise.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p) >= 10-1e-9 { // 1-0.9 is a hair under 0.1
			return p
		}
	}
	return 0.5
}

// worsening is how far cand is from base in the metric's bad direction, as
// a share of base: positive is worse, negative is better.
func worsening(base, cand float64, better string) float64 {
	if base == 0 {
		return 0
	}
	rel := (cand - base) / math.Abs(base)
	if better == "higher" {
		return -rel
	}
	return rel
}

// quartileSpread is (Q3 − Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) returns (the exclusive method), which is
// what the acceptance driver computes over ten runs.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(vs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := medianSorted(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
