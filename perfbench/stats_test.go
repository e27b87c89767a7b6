package main

import (
	"strings"
	"testing"
	"time"
)

// The tail is the highest ladder percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.9},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s sample
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	sorted := s.sorted()
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}, {0.001, time.Millisecond}} {
		if got := sorted.quantile(c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (sample{}).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

// describe names the tail percentile it chose and the sample count.
func TestDescribeReportsTailAndCount(t *testing.T) {
	var s sample
	for i := 1; i <= 1500; i++ {
		s = append(s, time.Duration(i)*time.Microsecond)
	}
	got := s.describe()
	for _, want := range []string{"p50=0.750ms", "p99=1.485ms", "(n=1500)"} {
		if !strings.Contains(got, want) {
			t.Errorf("describe() = %q, missing %q", got, want)
		}
	}
	if got := (sample{time.Millisecond}).describe(); strings.Contains(got, "p9") {
		t.Errorf("one sample reported a tail: %q", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

// A slow group moves its own quantile, not the median over groups.
func TestMedianOfQuantiles(t *testing.T) {
	group := func(scale time.Duration) sample {
		var g sample
		for i := 1; i <= 10; i++ {
			g = append(g, time.Duration(i)*scale)
		}
		return g
	}
	groups := []sample{group(time.Millisecond), group(100 * time.Millisecond), nil, group(2 * time.Millisecond)}
	if got, want := medianOfQuantiles(groups, 0.5), 5*2*time.Millisecond; got != want {
		t.Errorf("p50 = %v, want %v (the middle group's)", got, want)
	}
	if got, want := medianOfQuantiles(groups, 0.9), 9*2*time.Millisecond; got != want {
		t.Errorf("p90 = %v, want %v", got, want)
	}
	if got := medianOfQuantiles(nil, 0.5); got != 0 {
		t.Errorf("no groups = %v", got)
	}
}
