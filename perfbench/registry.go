package main

import (
	"strings"

	"fluxgo/internal/broker"
	"fluxgo/internal/obs"
)

// snapshotAll takes one registry snapshot per broker, in rank order.
func snapshotAll(brokers []*broker.Broker) []obs.Snapshot {
	out := make([]obs.Snapshot, len(brokers))
	for i, b := range brokers {
		out[i] = b.Metrics().Snapshot()
	}
	return out
}

// histDelta is after minus before for one histogram: count, exact sum
// and bucket counts. Quantiles are recomputed when deltas merge.
func histDelta(before, after obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Count: after.Count - before.Count, SumNS: after.SumNS - before.SumNS}
	prev := map[int]uint64{}
	for _, b := range before.Buckets {
		prev[b.Bit] = b.N
	}
	for _, b := range after.Buckets {
		if n := b.N - prev[b.Bit]; n > 0 {
			d.Buckets = append(d.Buckets, obs.Bucket{Bit: b.Bit, N: n})
		}
	}
	return d
}

// delta returns one rank's registry change between two snapshots. A
// metric registered after the first snapshot counts from zero. Gauges
// keep their final value: they are levels, not totals.
func delta(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{
		Counters: make(map[string]uint64, len(after.Counters)),
		Gauges:   make(map[string]int64, len(after.Gauges)),
		Hists:    make(map[string]obs.HistSnapshot, len(after.Hists)),
	}
	for name, v := range after.Counters {
		d.Counters[name] = v - before.Counters[name]
	}
	for name, v := range after.Gauges {
		d.Gauges[name] = v
	}
	for name, h := range after.Hists {
		d.Hists[name] = histDelta(before.Hists[name], h)
	}
	return d
}

// mergedDelta is the session-wide change: per-rank deltas merged over
// ranks (counters and histogram sums add).
func mergedDelta(before, after []obs.Snapshot) obs.Snapshot {
	var total obs.Snapshot
	for r := range after {
		var b obs.Snapshot
		if r < len(before) {
			b = before[r]
		}
		total.Merge(delta(b, after[r]))
	}
	return total
}

// counterSuffixSum adds every counter whose name starts with prefix and
// ends with suffix (the per-link "link.<id>.*" families).
func counterSuffixSum(s obs.Snapshot, prefix, suffix string) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			n += v
		}
	}
	return n
}
