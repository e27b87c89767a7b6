package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is a set of durations, summarized by nearest-rank percentiles.
type sample []time.Duration

// sorted returns a sorted copy.
func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rank is the 1-based nearest-rank position of quantile q in a sorted
// sample of n, ignoring float error in q*n.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of a sorted
// sample, or 0 for an empty one.
func (s sample) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[rank(q, len(s))-1]
}

// tailLadder is the set of percentiles a tail may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 90, 50}

// tailPercentile picks the highest percentile of the ladder that leaves
// at least ten samples beyond it in a sample of n, so that the tail
// rests on more than one or two observations. It returns 0 when even the
// median has fewer than ten samples beyond it.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n > 0 && n-rank(p/100, n) >= 10 {
			return p
		}
	}
	return 0
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// describe renders a sample as "p50=… pNN=… (n=…)" in milliseconds, with
// the tail at the highest percentile that has ten samples beyond it.
func (s sample) describe() string {
	sorted := s.sorted()
	out := fmt.Sprintf("p50=%.3fms", ms(sorted.quantile(0.5)))
	if p := tailPercentile(len(s)); p > 50 {
		out += fmt.Sprintf(" p%g=%.3fms", p, ms(sorted.quantile(p/100)))
	}
	return out + fmt.Sprintf(" (n=%d)", len(s))
}

// medianFloat returns the median of xs (the mean of the middle pair for
// an even count), or 0 for none.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianDuration is medianFloat over durations.
func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(medianFloat(xs))
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not reach).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// medianOfQuantiles takes the q-quantile of each group (an episode, or a
// window of a run) and returns the median over the groups, so that a
// stall confined to one group moves one group's value and not the
// result. Empty groups are skipped.
func medianOfQuantiles(groups []sample, q float64) time.Duration {
	var xs []float64
	for _, g := range groups {
		if len(g) > 0 {
			xs = append(xs, float64(g.sorted().quantile(q)))
		}
	}
	return time.Duration(medianFloat(xs))
}
