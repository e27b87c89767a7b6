package main

import (
	"fmt"
	"time"

	"fluxgo/internal/obs"
	"fluxgo/internal/wire"
)

// metricDef names one reported metric. moves is the end-to-end metric
// (and workload) a change in this per-layer metric should move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all four; what "latency", its tail percentile and "throughput"
// mean per workload is listed in README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_tail_ms", unit: "ms", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
}

// perLayer are the per-layer metrics of a traced run. A layer a workload
// does not reach reads 0.
var perLayer = []metricDef{
	{"session.bringup_ms", "ms", "lower", "setup_s (all)"},
	{"transport.bytes_sent_per_op", "bytes", "lower", "latency_p50_ms (tcp-rpc)"},
	{"transport.frames_coalesced_per_op", "count", "higher", "latency_tail_ms (tcp-rpc)"},
	{"broker.requests_routed_per_op", "count", "lower", "all latencies (all)"},
	{"broker.queue_wait_us_per_op", "us", "lower", "latency_tail_ms (tcp-rpc), latency_p50_ms (pmi-exchange)"},
	{"broker.route_us_per_op", "us", "lower", "latency_p50_ms (pmi-exchange, tcp-rpc)"},
	{"broker.event_apply_us_per_event", "us", "lower", "latency_p50_ms (pmi-exchange), throughput_per_s (job-throughput)"},
	{"broker.events_applied_per_op", "count", "lower", "latency_p50_ms (pmi-exchange), throughput_per_s (job-throughput)"},
	{"broker.fanout_reuse_frac", "frac", "higher", "latency_p50_ms (pmi-exchange); not job-throughput"},
	{"broker.send_errors", "count", "lower", "failed (all)"},
	{"broker.inflight_failed", "count", "lower", "failed (all)"},
	{"kvs.put_us_p50", "us", "lower", "latency_p50_ms (pmi-exchange)"},
	{"kvs.get_us_p50", "us", "lower", "latency_p50_ms (pmi-exchange, tcp-rpc)"},
	{"kvs.fence_after_last_ms_p50", "ms", "lower", "latency_p50_ms (pmi-exchange)"},
	{"kvs.fence_straggler_ms_p50", "ms", "lower", "none: waiting for other processes"},
	{"kvs.module_fence_us_per_fence", "us", "lower", "latency_p50_ms (pmi-exchange)"},
	{"kvs.loads_per_get", "count", "lower", "latency_tail_ms (pmi-exchange)"},
	{"kvs.load_batch_size", "count", "higher", "latency_tail_ms (pmi-exchange)"},
	{"kvs.loads_coalesced_frac", "frac", "higher", "latency_tail_ms (pmi-exchange)"},
	{"kvs.commits_per_job", "count", "lower", "throughput_per_s (job-throughput)"},
	{"kvs.master_commit_us_first_decile", "us", "lower", "throughput_per_s (job-throughput)"},
	{"kvs.master_commit_us_last_decile", "us", "lower", "throughput_per_s (job-throughput)"},
	{"barrier.enter_ms_p50", "ms", "lower", "latency_p50_ms (pmi-exchange)"},
	{"barrier.batches_per_release", "count", "lower", "latency_p50_ms (pmi-exchange)"},
	{"jobsvc.submit_ms_p50", "ms", "lower", "latency_p50_ms (job-throughput)"},
	{"jobsvc.queue_ms_p50", "ms", "lower", "throughput_per_s (job-throughput)"},
	{"wexec.run_ms_p50", "ms", "lower", "throughput_per_s (job-throughput)"},
	{"wexec.task_us_per_task", "us", "lower", "throughput_per_s (job-throughput)"},
	{"jobsvc.wait_after_complete_ms_p50", "ms", "lower", "latency_p50_ms (job-throughput)"},
	{"proc.cpu_ms_per_op", "ms", "lower", "all (all)"},
	{"proc.heap_inuse_mb", "MiB", "lower", "all (all)"},
	{"gen.late_ms_p99", "ms", "lower", "none: generator health (tcp-rpc)"},
	{"trace.overhead_frac", "frac", "lower", "none: traced vs untraced latency_p50_ms"},
	{"trace.uncovered_frac", "frac", "lower", "none: time outside the layers called"},
}

// registryLayers derives the registry-based per-layer metrics from the
// session-wide delta d over a window in which ops operations ran.
func registryLayers(layers map[string]float64, d obs.Snapshot, ops int64) {
	n := float64(ops)
	c := func(name string) float64 { return float64(d.Counters[name]) }
	sumUS := func(name string) float64 { return float64(d.Hists[name].SumNS) / 1e3 }

	layers["transport.bytes_sent_per_op"] = ratio(float64(counterSuffixSum(d, wire.MetricLinkPrefix, wire.MetricSuffixBytesSent)), n)
	layers["transport.frames_coalesced_per_op"] = ratio(float64(counterSuffixSum(d, wire.MetricLinkPrefix, wire.MetricSuffixFramesCoalesc)), n)

	layers["broker.requests_routed_per_op"] = ratio(c(wire.MetricRequestsRouted)+c(wire.MetricRequestsUpstream)+c(wire.MetricRequestsRing), n)
	layers["broker.queue_wait_us_per_op"] = ratio(sumUS(wire.MetricRequestQueueNS), n)
	layers["broker.route_us_per_op"] = ratio(sumUS(wire.MetricRouteRequestNS)+sumUS(wire.MetricRouteResponseNS), n)
	layers["broker.event_apply_us_per_event"] = ratio(sumUS(wire.MetricApplyEventNS), float64(d.Hists[wire.MetricApplyEventNS].Count))
	layers["broker.events_applied_per_op"] = ratio(c(wire.MetricEventsApplied), n)
	reuse, encodes := c(wire.MetricEventsFanoutReuse), c(wire.MetricEventsFanoutEncodes)
	layers["broker.fanout_reuse_frac"] = ratio(reuse, reuse+encodes)
	layers["broker.send_errors"] = c(wire.MetricSendErrors)
	layers["broker.inflight_failed"] = c(wire.MetricInflightFailed)

	layers["kvs.module_fence_us_per_fence"] = ratio(sumUS("kvs.fence_ns"), float64(d.Hists["kvs.fence_ns"].Count))
	layers["kvs.loads_per_get"] = ratio(c("kvs.loads"), c("kvs.gets"))
	layers["kvs.load_batch_size"] = ratio(c("kvs.loads"), c("kvs.load_batches"))
	layers["kvs.loads_coalesced_frac"] = ratio(c("kvs.loads_coalesced"), c("kvs.loads")+c("kvs.loads_coalesced"))

	layers["barrier.batches_per_release"] = ratio(c("barrier.batches"), c("barrier.releases"))
	layers["wexec.task_us_per_task"] = ratio(sumUS("wexec.task_ns"), float64(d.Hists["wexec.task_ns"].Count))
}

// processLayers fills the process-wide metrics over a window.
func processLayers(layers map[string]float64, cpu time.Duration, ops int64) {
	layers["proc.cpu_ms_per_op"] = ratio(ms(cpu), float64(ops))
	layers["proc.heap_inuse_mb"] = heapInuseMB()
}

// spanP50 sets layers[metric] to the median duration of the spans named
// name, in the given unit scale (ms or us).
func spanP50(layers map[string]float64, metric string, spans map[string]sample, name string, scale func(time.Duration) float64) {
	if s := spans[name]; len(s) > 0 {
		layers[metric] = scale(s.sorted().quantile(0.5))
	}
}

// named reports one of the workload's metrics under its descriptive
// name, with the sample behind it and the end-to-end metric it is gated
// as ("" when it is printed only).
func (o *outcome) named(name string, value float64, unit, gatedAs, detail string) {
	if gatedAs == "" {
		gatedAs = "not gated"
	}
	o.reportf("  %-24s %12.4f %-4s [%s] %s", name, value, unit, gatedAs, detail)
}

// overheadFrac compares the traced and untraced halves of a traced run:
// the relative increase of the traced units' median.
func overheadFrac(traced, untraced sample) float64 {
	u := untraced.sorted().quantile(0.5)
	if u == 0 || len(traced) == 0 {
		return 0
	}
	return float64(traced.sorted().quantile(0.5))/float64(u) - 1
}

// newOutcome returns an outcome with every per-layer metric present.
func newOutcome() *outcome {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	for _, d := range perLayer {
		o.layers[d.name] = 0
	}
	return o
}

// finishTrace computes the span-derived layer metrics common to every
// workload and writes the spans out.
func finishTrace(o *outcome, cfg config, tr *tracer) error {
	if tr == nil {
		return nil
	}
	spans := tr.all()
	o.layers["trace.uncovered_frac"] = uncoveredFrac(spans)
	path := fmt.Sprintf("%s/%s-seed%d.tsv", spansDir, cfg.workload, cfg.seed)
	if err := writeSpans(path, spans); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	o.reportf("spans: %d written to %s", len(spans), path)
	return nil
}
