package main

import (
	"testing"
	"time"

	"fluxgo/internal/obs"
)

// Per-rank before/after deltas merge into session-wide totals: counters
// and histogram sums add, and a metric born during the window counts
// from zero.
func TestMergedDeltaAcrossRanks(t *testing.T) {
	ranks := []*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
	ranks[0].Counter("cmb.requests_routed").Add(5)
	ranks[0].Histogram("kvs.fence_ns").Observe(time.Microsecond)
	ranks[1].Counter("cmb.requests_routed").Add(7)
	before := []obs.Snapshot{ranks[0].Snapshot(), ranks[1].Snapshot()}

	ranks[0].Counter("cmb.requests_routed").Add(3)
	ranks[1].Counter("cmb.requests_routed").Add(4)
	ranks[0].Histogram("kvs.fence_ns").Observe(3 * time.Microsecond)
	ranks[1].Histogram("kvs.fence_ns").Observe(5 * time.Microsecond)
	ranks[1].Counter("link.tcp:1.bytes_sent").Add(100)
	ranks[0].Counter("link.tcp:2.bytes_sent").Add(20)
	ranks[0].Gauge("barrier.active").Set(2)
	after := []obs.Snapshot{ranks[0].Snapshot(), ranks[1].Snapshot()}

	d := mergedDelta(before, after)
	if got := d.Counters["cmb.requests_routed"]; got != 7 {
		t.Errorf("requests_routed delta = %d, want 7", got)
	}
	h := d.Hists["kvs.fence_ns"]
	if h.Count != 2 || h.SumNS != 8000 {
		t.Errorf("fence_ns delta count=%d sum=%d, want 2 and 8000", h.Count, h.SumNS)
	}
	var inBuckets uint64
	for _, b := range h.Buckets {
		inBuckets += b.N
	}
	if inBuckets != 2 {
		t.Errorf("fence_ns delta buckets hold %d observations, want 2", inBuckets)
	}
	if got := counterSuffixSum(d, "link.", ".bytes_sent"); got != 120 {
		t.Errorf("link bytes_sent sum = %d, want 120", got)
	}
	if got := d.Gauges["barrier.active"]; got != 2 {
		t.Errorf("gauge = %d, want its final value 2", got)
	}
}

func TestRegistryLayersRatios(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cmb.requests_routed").Add(30)
	reg.Counter("cmb.requests_upstream").Add(10)
	reg.Counter("cmb.events_fanout_reuse").Add(3)
	reg.Counter("cmb.events_fanout_encodes").Add(1)
	reg.Counter("kvs.gets").Add(8)
	reg.Counter("kvs.loads").Add(4)
	reg.Counter("kvs.load_batches").Add(2)
	reg.Histogram("cmb.request_queue_ns").Observe(40 * time.Microsecond)
	d := mergedDelta(nil, []obs.Snapshot{reg.Snapshot()})
	layers := map[string]float64{}
	registryLayers(layers, d, 10)
	for name, want := range map[string]float64{
		"broker.requests_routed_per_op": 4,
		"broker.fanout_reuse_frac":      0.75,
		"broker.queue_wait_us_per_op":   4,
		"kvs.loads_per_get":             0.5,
		"kvs.load_batch_size":           2,
		// No fences ran: a layer the workload does not reach reads 0.
		"kvs.module_fence_us_per_fence": 0,
	} {
		if got := layers[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
