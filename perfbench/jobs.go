package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fluxgo"
	"fluxgo/internal/broker"
	"fluxgo/internal/modules/jobsvc"
	"fluxgo/internal/obs"
)

// job-throughput: the RJMS path users submit to. Closed-loop submitters
// each keep one job in flight on a session with the full module set.
// Throughput falls as a session accumulates job records in the KVS, so
// each episode runs a fixed number of jobs on a fresh session, and a run
// repeats episodes; the metrics are over episodes of identical work.
const (
	jobRanks          = 16
	jobSubmitters     = 2
	jobsPerEpisode    = 256
	jobsWarmup        = 32 // one short untimed episode first
	jobMinEpisodes    = 5  // timed episodes per run at least; the latencies are medians over episodes
	jobExtraSetups    = 64 // bring-ups without jobs: one takes 4-11 ms, so setup_s is a median of many
	jobMaxNodes       = 4
	jobProgram        = "hostname"
	jobDeciles        = 10
	masterFenceMetric = "kvs.fence_ns"
)

// jobEvent is one job.state event as the benchmark's subscriber saw it.
type jobEvent struct {
	id, state string
	at        time.Time
}

// jobRecord is one job as its submitter saw it.
type jobRecord struct {
	id                     string
	ranks                  []int
	submit, submitted, end time.Time // Submit called, Submit returned, Wait returned
	ok                     bool
	// A traced job's spans: the submitter records its two calls as they
	// return; the phases between job.state events are added after the
	// episode, from the subscriber's timestamps.
	spans       *buf
	trace, root uint64
}

// episode is one fixed-count run of jobs on a fresh session.
type episode struct {
	setup, bringup time.Duration
	elapsed        time.Duration // first submit to last Wait return
	jobs           []jobRecord
	events         map[string]map[string]time.Time // id -> state -> seen
	delta          obs.Snapshot                    // merged over ranks
	decileUS       [jobDeciles]float64             // rank-0 master commit µs per decile of jobs
	masterCommits  uint64                          // commits and fences rank 0's KVS handled
}

// jobSession is one bring-up of the workload's session: the session, a
// rank-0 handle subscribed to job.state, and the submitters' handles.
type jobSession struct {
	sess           *fluxgo.Session
	watcher        *broker.Handle
	sub            *broker.Subscription
	submitters     []*broker.Handle
	setup, bringup time.Duration // with the handles, and the session alone
}

// startJobSession brings up a fresh session from a collected heap: the
// previous session's garbage is not this one's work.
func startJobSession() (*jobSession, error) {
	runtime.GC()
	t0 := time.Now()
	sess, err := fluxgo.NewSession(fluxgo.SessionOptions{Size: jobRanks, HBInterval: time.Hour})
	if err != nil {
		return nil, err
	}
	bringup := time.Since(t0)
	s := &jobSession{sess: sess, bringup: bringup, watcher: sess.Handle(0)}
	if s.sub, err = s.watcher.Subscribe("job.state"); err != nil {
		s.close()
		return nil, err
	}
	for i := 0; i < jobSubmitters; i++ {
		s.submitters = append(s.submitters, sess.Handle((i+1)*jobRanks/(jobSubmitters+1)))
	}
	s.setup = time.Since(t0)
	return s, nil
}

func (s *jobSession) close() {
	for _, h := range s.submitters {
		h.Close()
	}
	s.watcher.Close()
	s.sess.Close()
}

// runEpisode runs njobs jobs on a fresh session. With tr set, every
// other job is traced.
func runEpisode(cfg config, index, njobs int, fails *failures, tr *tracer) (*episode, error) {
	ep := &episode{events: map[string]map[string]time.Time{}}
	js, err := startJobSession()
	if err != nil {
		return nil, err
	}
	defer js.close()
	ep.setup, ep.bringup = js.setup, js.bringup

	// The subscriber records when each state change reaches rank 0, in
	// the root's event order.
	var order []jobEvent
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for ev := range js.sub.Chan() {
			var body struct{ ID, State string }
			if err := ev.UnpackJSON(&body); err == nil {
				order = append(order, jobEvent{id: body.ID, state: body.State, at: time.Now()})
			}
		}
	}()

	brokers := make([]*broker.Broker, jobRanks)
	for r := range brokers {
		brokers[r] = js.sess.Broker(r)
	}
	// decileSnaps[d] is rank 0's master commit histogram once d tenths
	// of the episode's jobs have completed.
	master := brokers[0].Metrics().Histogram(masterFenceMetric)
	var decileSnaps [jobDeciles + 1]obs.HistSnapshot
	decileSnaps[0] = master.Snapshot()
	before := snapshotAll(brokers)

	nodes := genJobNodes(cfg.seed, index, njobs, jobMaxNodes)
	ep.jobs = make([]jobRecord, njobs)
	var next, completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, h := range js.submitters {
		wg.Add(1)
		go func(h *broker.Handle) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= njobs {
					return
				}
				var spans *buf
				var trace, root uint64
				if tr != nil && j%2 == 0 {
					spans, trace, root = tr.buffer(), tr.id(), tr.id()
				}
				ep.jobs[j] = submitJob(h, nodes[j], fails, spans, trace, root)
				done := int(completed.Add(1))
				for d := 1; d < jobDeciles; d++ {
					if done == d*njobs/jobDeciles {
						decileSnaps[d] = master.Snapshot()
					}
				}
			}
		}(h)
	}
	wg.Wait()
	ep.elapsed = time.Since(start)
	decileSnaps[jobDeciles] = master.Snapshot()
	ep.delta = mergedDelta(before, snapshotAll(brokers))
	ep.masterCommits = decileSnaps[jobDeciles].Count - decileSnaps[0].Count
	for d := 0; d < jobDeciles; d++ {
		if decileSnaps[d+1].Count > 0 {
			h := histDelta(decileSnaps[d], decileSnaps[d+1])
			ep.decileUS[d] = ratio(float64(h.SumNS)/1e3, float64(h.Count))
		}
	}
	js.watcher.Close() // closes the subscription; the subscriber drains and ends
	<-subDone
	for _, ev := range order {
		if ep.events[ev.id] == nil {
			ep.events[ev.id] = map[string]time.Time{}
		}
		ep.events[ev.id][ev.state] = ev.at
	}
	checkDisjoint(ep, order, fails)
	return ep, nil
}

// submitJob submits one job, waits for it, and checks its final record.
// With spans set, it records the Submit and Wait calls under trace.
func submitJob(h *broker.Handle, nodes int, fails *failures, spans *buf, trace, root uint64) jobRecord {
	rec := jobRecord{spans: spans, trace: trace, root: root, submit: time.Now()}
	id, err := jobsvc.Submit(h, jobsvc.Spec{Program: jobProgram, Nodes: nodes})
	rec.submitted = time.Now()
	spans.add(trace, root, "jobsvc.submit", rec.submit, rec.submitted)
	if err != nil {
		fails.add("submit %d-node job: %v", nodes, err)
		rec.end = rec.submitted
		return rec
	}
	rec.id = id
	ctx, cancel := context.WithTimeout(context.Background(), rpcTimeout)
	defer cancel()
	info, err := jobsvc.Wait(ctx, h, id)
	rec.end = time.Now()
	spans.add(trace, root, "jobsvc.wait", rec.submitted, rec.end)
	switch {
	case err != nil:
		fails.add("wait job %s: %v", id, err)
	case info.State != jobsvc.StateComplete || info.Exit != 0:
		fails.add("job %s ended %s with %d failed tasks", id, info.State, info.Exit)
	case len(info.Ranks) != nodes:
		fails.add("job %s ran on %d ranks, asked for %d", id, len(info.Ranks), nodes)
	default:
		rec.ranks, rec.ok = info.Ranks, true
	}
	return rec
}

// checkDisjoint walks the job.state events in the root's order and fails
// any job that starts running on a rank a still-running job holds.
func checkDisjoint(ep *episode, order []jobEvent, fails *failures) {
	ranks := map[string][]int{}
	for i := range ep.jobs {
		ranks[ep.jobs[i].id] = ep.jobs[i].ranks
	}
	holder := map[int]string{}
	bad := map[string]bool{}
	for _, ev := range order {
		switch ev.state {
		case jobsvc.StateRunning:
			for _, r := range ranks[ev.id] {
				if other, busy := holder[r]; busy {
					fails.add("job %s started on rank %d while job %s held it", ev.id, r, other)
					bad[ev.id] = true
				}
				holder[r] = ev.id
			}
		case jobsvc.StateComplete, jobsvc.StateFailed, jobsvc.StateCancelled:
			for _, r := range ranks[ev.id] {
				if holder[r] == ev.id {
					delete(holder, r)
				}
			}
		}
	}
	for i := range ep.jobs {
		if bad[ep.jobs[i].id] {
			ep.jobs[i].ok = false
		}
	}
}

func runJobs(cfg config) (*outcome, error) {
	o := newOutcome()
	fails := &failures{}
	countJobs := func(ep *episode) {
		for _, j := range ep.jobs {
			o.attempted++
			if !j.ok {
				o.failed++
			}
		}
	}
	warm, err := runEpisode(cfg, 0, jobsWarmup, fails, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up episode: %w", err)
	}
	countJobs(warm)

	var setups, bringups []time.Duration
	for i := 0; i < jobExtraSetups; i++ {
		js, err := startJobSession()
		if err != nil {
			return nil, fmt.Errorf("bring-up %d: %w", i, err)
		}
		js.close()
		setups, bringups = append(setups, js.setup), append(bringups, js.bringup)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var eps []*episode
	var turnaround, traced, untraced sample
	var perEpisode []sample // turnaround, per episode
	var total obs.Snapshot
	var ops int64
	cpu0 := cpuTime()
	start := time.Now()
	// Run whole episodes until the time is up and there are enough of
	// them for the medians over episodes.
	for len(eps) < jobMinEpisodes || time.Since(start) < cfg.seconds {
		ep, err := runEpisode(cfg, len(eps)+1, jobsPerEpisode, fails, tr)
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", len(eps)+1, err)
		}
		eps = append(eps, ep)
		countJobs(ep)
		ops += int64(len(ep.jobs))
		total.Merge(ep.delta)
		var epTurnaround sample
		for _, rec := range ep.jobs {
			d := rec.end.Sub(rec.submit)
			epTurnaround = append(epTurnaround, d)
			// A traced run traces every other job; the rest give the
			// tracing overhead.
			if rec.spans != nil {
				traced = append(traced, d)
				traceJob(rec, ep.events[rec.id])
			} else {
				untraced = append(untraced, d)
			}
		}
		turnaround = append(turnaround, epTurnaround...)
		perEpisode = append(perEpisode, epTurnaround)
	}
	cpu := cpuTime() - cpu0

	var rates, first, last []float64
	var commits uint64
	for _, ep := range eps {
		commits += ep.masterCommits
		setups = append(setups, ep.setup)
		bringups = append(bringups, ep.bringup)
		rates = append(rates, float64(len(ep.jobs))/ep.elapsed.Seconds())
		first = append(first, ep.decileUS[0])
		last = append(last, ep.decileUS[jobDeciles-1])
	}
	o.e2e["setup_s"] = medianDuration(setups).Seconds()
	o.e2e["latency_p50_ms"] = ms(medianOfQuantiles(perEpisode, 0.5))
	// The gated tail is the p90: the slowest 1% of jobs are the ones
	// caught in process-wide stalls, which vary from run to run.
	o.e2e["latency_tail_ms"] = ms(medianOfQuantiles(perEpisode, 0.90))
	o.e2e["throughput_per_s"] = medianFloat(rates)
	o.reportf("job-throughput: %d ranks, %d submitters, %d episodes of %d %s jobs on 1-%d nodes",
		jobRanks, jobSubmitters, len(eps), jobsPerEpisode, jobProgram, jobMaxNodes)
	o.named("setup_s", o.e2e["setup_s"], "s", "setup_s", fmt.Sprintf("median of %d bring-ups", len(setups)))
	o.named("jobs.per_s", o.e2e["throughput_per_s"], "1/s", "throughput_per_s", fmt.Sprintf("median of %d episodes: %s", len(rates), fmtFloats(rates)))
	perEp := fmt.Sprintf("median over %d episodes", len(perEpisode))
	o.named("jobs.turnaround_ms_p50", o.e2e["latency_p50_ms"], "ms", "latency_p50_ms", perEp+"; submit to Wait return, whole run: "+turnaround.describe())
	o.named("jobs.turnaround_ms_p90", o.e2e["latency_tail_ms"], "ms", "latency_tail_ms", perEp)
	o.named("jobs.turnaround_ms_p99", ms(turnaround.sorted().quantile(0.99)), "ms", "", "whole run")

	o.layers["session.bringup_ms"] = ms(medianDuration(bringups))
	registryLayers(o.layers, total, ops)
	processLayers(o.layers, cpu, ops)
	o.layers["kvs.commits_per_job"] = ratio(float64(commits), float64(ops))
	o.layers["kvs.master_commit_us_first_decile"] = medianFloat(first)
	o.layers["kvs.master_commit_us_last_decile"] = medianFloat(last)
	if tr != nil {
		named := byName(tr.all())
		spanP50(o.layers, "jobsvc.submit_ms_p50", named, "jobsvc.submit", ms)
		spanP50(o.layers, "jobsvc.queue_ms_p50", named, "jobsvc.queue", ms)
		spanP50(o.layers, "wexec.run_ms_p50", named, "wexec.run", ms)
		spanP50(o.layers, "jobsvc.wait_after_complete_ms_p50", named, "jobsvc.wait_after_complete", ms)
		o.layers["trace.overhead_frac"] = overheadFrac(traced, untraced)
	}
	return o, finishTrace(o, cfg, tr)
}

// traceJob completes a traced job's spans, whose Submit and Wait calls
// the submitter recorded: it adds the phases between the job.state
// events rank 0 saw, and the job's root span.
func traceJob(rec jobRecord, seen map[string]time.Time) {
	b, trace, root := rec.spans, rec.trace, rec.root
	defer b.flush()
	sub, okS := seen[jobsvc.StateSubmitted]
	run, okR := seen[jobsvc.StateRunning]
	done, okD := seen[jobsvc.StateComplete]
	if okS && okR {
		b.add(trace, root, "jobsvc.queue", sub, run)
	}
	if okR && okD {
		b.add(trace, root, "wexec.run", run, done)
	}
	if okD && rec.end.After(done) {
		b.add(trace, root, "jobsvc.wait_after_complete", done, rec.end)
	}
	b.addID(trace, root, 0, "job", rec.submit, rec.end)
}

func fmtFloats(xs []float64) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.1f", x)
	}
	return out
}
