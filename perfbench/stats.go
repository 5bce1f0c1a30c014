package main

import (
	"fmt"
	"sort"
)

// timing summarizes a timing sample the way every benchmark timing is
// reported: the median and the tail, where the tail is the highest
// percentile that still has at least ten samples beyond it.
type timing struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // the percentile Tail sits at; 100 when N <= 10 (Tail is the max)
}

// summarize computes the median and tail of vals (which it sorts).
func summarize(vals []float64) timing {
	n := len(vals)
	if n == 0 {
		return timing{}
	}
	sort.Float64s(vals)
	d := timing{N: n, P50: median(vals), Tail: vals[n-1], TailPct: 100}
	if n > 10 {
		// The (n-10)-th smallest value has exactly ten samples above it.
		d.Tail = vals[n-11]
		d.TailPct = 100 * float64(n-10) / float64(n)
	}
	return d
}

// median of sorted vals.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of vals and returns its median.
func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return median(s)
}

func (d timing) String() string {
	if d.N == 0 {
		return "no samples"
	}
	return fmt.Sprintf("p50 %.3f, p%.2f %.3f (n=%d)", d.P50, d.TailPct, d.Tail, d.N)
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
