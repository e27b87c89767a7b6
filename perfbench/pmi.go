package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/barrier"
	"fluxgo/internal/obs"
	"fluxgo/internal/session"
)

// pmi-exchange: the paper's KAP critical path as a PMI bootstrap would
// drive it, repeated as closed-loop rounds on in-process sessions whose
// every hop pays the wire codec. At 64 ranks a round used both cores of
// the 2-core build machine for 0.75 s and moved 20% between runs with
// the machine's speed; at 32 ranks, 0.25 s and about 10%. Each round, every process puts one
// unique value, all fence, each reads values of seeded peers, and all
// leave through a barrier. A first, untimed session warms the process.
const (
	pmiRanks        = 32
	pmiProcsPerRank = 4
	pmiProcs        = pmiRanks * pmiProcsPerRank
	pmiGets         = 16
	pmiValueSize    = 2048
	pmiDirFanout    = 128 // directory size, as in the paper's Fig. 4(b)
	// Each session runs this many rounds and is then closed: the slave
	// caches keep every object they saw, so a long-lived session would
	// grow its heap (and its GC cost) round after round.
	pmiRoundsPerSession = 2
)

// rpcTimeout bounds every handle RPC of the in-process sessions, so a
// lost reply fails one operation instead of stalling the run.
const rpcTimeout = 30 * time.Second

func pmiKey(p int) string { return fmt.Sprintf("pmi.d%d.k%d", p/pmiDirFanout, p) }

// pmiTraced reports whether a traced run traces round r. It traces
// every other session, both of its rounds, so that the traced and the
// untraced rounds hold as many first rounds on a fresh session as
// second ones, and the untraced rounds give the tracing overhead.
func pmiTraced(r int) bool { return (r/pmiRoundsPerSession)%2 == 0 }

// pmiSession is one bring-up: the session plus one handle and KVS client
// per simulated process.
type pmiSession struct {
	sess    *session.Session
	handles []*broker.Handle
	clients []*kvs.Client
}

func (s *pmiSession) close() {
	for _, h := range s.handles {
		h.Close()
	}
	s.sess.Close()
}

func bringUpPMI() (*pmiSession, time.Duration, error) {
	t0 := time.Now()
	sess, err := session.New(session.Options{
		Size:       pmiRanks,
		Codec:      true,
		RPCTimeout: rpcTimeout,
		Modules:    []session.ModuleFactory{kvs.Factory(kvs.ModuleConfig{}), barrier.Factory},
	})
	if err != nil {
		return nil, 0, err
	}
	bringup := time.Since(t0)
	s := &pmiSession{sess: sess}
	for p := 0; p < pmiProcs; p++ {
		// Consecutive processes go to consecutive nodes, as in KAP.
		h := sess.Handle(p % pmiRanks)
		s.handles = append(s.handles, h)
		s.clients = append(s.clients, kvs.NewClient(h))
	}
	return s, bringup, nil
}

// pmiResult is one round's timings.
type pmiResult struct {
	round time.Duration   // first put to last barrier exit
	fence []time.Duration // per process
	get   []time.Duration // per get
}

// pmiRunner holds the state that spans rounds.
type pmiRunner struct {
	s        *pmiSession
	fails    *failures
	versions []uint64 // last fence version per process
	failed   []bool   // per process, this round
}

// round runs exchange round r with inputs in, recording spans into tr
// (nil when untraced). It returns the round's timings and how many
// processes saw any failure.
func (pr *pmiRunner) round(r int, in pmiRound, tr *tracer) (pmiResult, int) {
	res := pmiResult{fence: make([]time.Duration, pmiProcs), get: make([]time.Duration, pmiProcs*pmiGets)}
	starts := make([]time.Time, pmiProcs)
	ends := make([]time.Time, pmiProcs)
	fenceName := fmt.Sprintf("pmi.fence.%d", r)
	barrierName := fmt.Sprintf("pmi.barrier.%d", r)
	trace, rootID := tr.id(), tr.id()
	var wg sync.WaitGroup
	for p := 0; p < pmiProcs; p++ {
		pr.failed[p] = false
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			b := tr.buffer()
			defer b.flush()
			fail := func(format string, args ...any) {
				pr.failed[p] = true
				pr.fails.add("round %d proc %d: "+format, append([]any{r, p}, args...)...)
			}
			c, procID := pr.s.clients[p], tr.id()

			t0 := time.Now()
			if err := c.PutRaw(pmiKey(p), in.values[p]); err != nil {
				fail("put: %v", err)
			}
			t1 := time.Now()
			b.add(trace, procID, "kvs.put", t0, t1)
			v, err := c.Fence(fenceName, pmiProcs)
			t2 := time.Now()
			b.add(trace, procID, "kvs.fence", t1, t2)
			res.fence[p] = t2.Sub(t1)
			switch {
			case err != nil:
				fail("fence: %v", err)
			case v < pr.versions[p]:
				fail("fence version %d after %d", v, pr.versions[p])
			default:
				pr.versions[p] = v
			}
			for k, tgt := range in.targets[p] {
				g0 := time.Now()
				raw, err := c.GetRaw(pmiKey(tgt))
				g1 := time.Now()
				b.add(trace, procID, "kvs.get", g0, g1)
				res.get[p*pmiGets+k] = g1.Sub(g0)
				if err != nil {
					fail("get %s: %v", pmiKey(tgt), err)
				} else if !bytes.Equal(raw, in.values[tgt]) {
					fail("get %s: value differs from what process %d put this round", pmiKey(tgt), tgt)
				}
			}
			b0 := time.Now()
			if err := barrier.Enter(pr.s.handles[p], barrierName, pmiProcs); err != nil {
				fail("barrier: %v", err)
			}
			b1 := time.Now()
			b.add(trace, procID, "barrier.enter", b0, b1)
			b.addID(trace, procID, rootID, "pmi.proc", t0, b1)
			starts[p], ends[p] = t0, b1
		}(p)
	}
	wg.Wait()
	first, last := starts[0], ends[0]
	nfailed := 0
	for p := 0; p < pmiProcs; p++ {
		if starts[p].Before(first) {
			first = starts[p]
		}
		if ends[p].After(last) {
			last = ends[p]
		}
		if pr.failed[p] {
			nfailed++
		}
	}
	res.round = last.Sub(first)
	rb := tr.buffer()
	rb.addID(trace, rootID, 0, "pmi.round", first, last)
	rb.flush()
	return res, nfailed
}

func runPMI(cfg config) (*outcome, error) {
	o := newOutcome()
	fails := &failures{}
	versions := make([]uint64, pmiProcs)
	failed := make([]bool, pmiProcs)
	// session runs rounds [r0, r0+pmiRoundsPerSession) on a fresh
	// session, calling each after every round.
	session := func(r0 int, tr *tracer, each func(r int, res pmiResult)) (setup, bringup time.Duration, d obs.Snapshot, err error) {
		t0 := time.Now()
		s, bringup, err := bringUpPMI()
		if err != nil {
			return 0, 0, d, fmt.Errorf("session bring-up: %w", err)
		}
		setup = time.Since(t0)
		defer s.close()
		brokers := make([]*broker.Broker, pmiRanks)
		for r := range brokers {
			brokers[r] = s.sess.Broker(r)
		}
		before := snapshotAll(brokers)
		pr := &pmiRunner{s: s, fails: fails, versions: versions, failed: failed}
		for i := range versions {
			versions[i] = 0
		}
		for r := r0; r < r0+pmiRoundsPerSession; r++ {
			rtr := tr
			if !pmiTraced(r) {
				rtr = nil
			}
			res, nf := pr.round(r, genPMIRound(cfg.seed, r, pmiProcs, pmiGets, pmiValueSize), rtr)
			o.attempted += pmiProcs
			o.failed += int64(nf)
			each(r, res)
		}
		return setup, bringup, mergedDelta(before, snapshotAll(brokers)), nil
	}
	if _, _, _, err := session(0, nil, func(int, pmiResult) {}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var setups, bringups []time.Duration
	var rounds, tracedRounds, untracedRounds, fence, get sample
	var total obs.Snapshot
	var ops int64
	runtime.GC() // the warm-up's garbage is not the measured rounds'
	cpu0 := cpuTime()
	start := time.Now()
	for r := pmiRoundsPerSession; len(rounds) == 0 || time.Since(start) < cfg.seconds; r += pmiRoundsPerSession {
		setup, bringup, d, err := session(r, tr, func(r int, res pmiResult) {
			ops += pmiProcs
			rounds = append(rounds, res.round)
			if tr != nil && pmiTraced(r) {
				tracedRounds = append(tracedRounds, res.round)
			} else {
				untracedRounds = append(untracedRounds, res.round)
			}
			fence = append(fence, res.fence...)
			get = append(get, res.get...)
		})
		if err != nil {
			return nil, err
		}
		setups, bringups = append(setups, setup), append(bringups, bringup)
		total.Merge(d)
	}
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0

	o.e2e["setup_s"] = medianDuration(setups).Seconds()
	o.e2e["latency_p50_ms"] = ms(rounds.sorted().quantile(0.5))
	o.e2e["latency_tail_ms"] = ms(get.sorted().quantile(0.99))
	o.e2e["throughput_per_s"] = float64(ops) / elapsed.Seconds()
	o.reportf("pmi-exchange: %d ranks x %d procs, %d B values, %d gets/proc, %d rounds on %d sessions in %.2fs",
		pmiRanks, pmiProcsPerRank, pmiValueSize, pmiGets, len(rounds), len(setups), elapsed.Seconds())
	o.named("setup_s", o.e2e["setup_s"], "s", "setup_s", fmt.Sprintf("median of %d bring-ups", len(setups)))
	o.named("pmi.exchange_ms_p50", o.e2e["latency_p50_ms"], "ms", "latency_p50_ms", "rounds, first put to last barrier exit: "+rounds.describe())
	o.named("pmi.fence_ms_p99", ms(fence.sorted().quantile(0.99)), "ms", "", "per-proc fences: "+fence.describe())
	o.named("pmi.get_ms_p99", o.e2e["latency_tail_ms"], "ms", "latency_tail_ms", "gets: "+get.describe())
	o.named("pmi.exchanges_per_s", o.e2e["throughput_per_s"], "1/s", "throughput_per_s", fmt.Sprintf("%d proc exchanges", ops))

	o.layers["session.bringup_ms"] = ms(medianDuration(bringups))
	registryLayers(o.layers, total, ops)
	processLayers(o.layers, cpu, ops)
	if tr != nil {
		spans := tr.all()
		named := byName(spans)
		spanP50(o.layers, "kvs.put_us_p50", named, "kvs.put", us)
		spanP50(o.layers, "kvs.get_us_p50", named, "kvs.get", us)
		spanP50(o.layers, "barrier.enter_ms_p50", named, "barrier.enter", ms)
		afterLast, straggler := fenceSplit(spans)
		o.layers["kvs.fence_after_last_ms_p50"] = ms(afterLast.sorted().quantile(0.5))
		o.layers["kvs.fence_straggler_ms_p50"] = ms(straggler.sorted().quantile(0.5))
		o.layers["trace.overhead_frac"] = overheadFrac(tracedRounds, untracedRounds)
	}
	return o, finishTrace(o, cfg, tr)
}

// fenceSplit splits each fence span of a round at the moment the last
// participant entered: the part after it is the KVS's own cost
// (aggregation, master commit, setroot), the part before is waiting for
// the other processes.
func fenceSplit(spans []span) (afterLast, straggler sample) {
	lastEntry := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.name == "kvs.fence" && s.start > lastEntry[s.trace] {
			lastEntry[s.trace] = s.start
		}
	}
	for _, s := range spans {
		if s.name == "kvs.fence" {
			last := lastEntry[s.trace]
			afterLast = append(afterLast, s.end-last)
			straggler = append(straggler, last-s.start)
		}
	}
	return afterLast, straggler
}
