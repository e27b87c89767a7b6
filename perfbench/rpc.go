package main

import (
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fluxgo/internal/broker"
	"fluxgo/internal/kvs"
	"fluxgo/internal/modules/barrier"
	"fluxgo/internal/session"
	"fluxgo/internal/wire"
)

// tcp-rpc: the only workload whose inter-broker hops are real loopback
// TCP. One process starts every rank with session.StartTCPBroker; two
// client handles at leaf ranks send a seeded mix of commits of their own
// keys (read back at once), gets of the other client's keys (faulted in
// across TCP links) and pings to far ranks.
//
// A run has two phases of equal length. In a closed loop, each client
// sends its next request when its previous one has completed; the
// end-to-end metrics come from it. Then an open loop sends at a fixed
// rate, timing each request from when it was due; its figures are
// printed but not gated, because on a shared machine they follow the
// CPU time other tenants take (README.md). The rate is a constant so
// that both sides of a comparison get the same offered load; the knee is
// about 5000 req/s on the 2-core build machine, and README.md records
// how the rate was chosen.
const (
	rpcRate      = 1000  // open loop: requests per second, about 20% of the knee
	rpcClosedCap = 20000 // closed loop: requests per second its seeded streams are sized for

	rpcRanks    = 16
	rpcSlots    = 64 // keys per client
	rpcSetups   = 7
	rpcWarmup   = time.Second // leading part of each phase left out of the metrics
	rpcInflight = 1024        // open loop: requests in flight at most; beyond it the generator runs late
)

// rpcClientRanks are leaves in different subtrees of the root, so that
// a get of the other client's key faults in across several TCP links.
var rpcClientRanks = [2]int{8, 14}

func rpcKey(client, slot int) string { return fmt.Sprintf("rpc.c%d.k%d", client, slot) }

// tcpSession is one loopback-TCP bring-up plus the two client handles.
type tcpSession struct {
	brokers []*session.TCPBroker
	handles [2]*broker.Handle
}

func (s *tcpSession) close() {
	for _, h := range s.handles {
		if h != nil {
			h.Close()
		}
	}
	var wg sync.WaitGroup
	for _, b := range s.brokers {
		if b != nil {
			wg.Add(1)
			go func(b *session.TCPBroker) {
				defer wg.Done()
				b.Close()
			}(b)
		}
	}
	wg.Wait()
}

// freePorts reserves n loopback ports by binding and releasing them;
// the brokers bind them again right after.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return addrs, nil
}

// bringUpTCP starts every rank concurrently (the ring makes bring-up
// cyclic, so each rank's dials retry until its peers listen).
func bringUpTCP() (*tcpSession, error) {
	addrs, err := freePorts(rpcRanks)
	if err != nil {
		return nil, err
	}
	key := []byte("perfbench")
	mods := []session.ModuleFactory{kvs.Factory(kvs.ModuleConfig{}), barrier.Factory}
	s := &tcpSession{brokers: make([]*session.TCPBroker, rpcRanks)}
	errs := make([]error, rpcRanks)
	var wg sync.WaitGroup
	for r := 0; r < rpcRanks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			parent, next, err := session.TreeAddrs(r, rpcRanks, 2, func(x int) string { return addrs[x] })
			if err == nil {
				s.brokers[r], err = session.StartTCPBroker(session.TCPConfig{
					Rank: r, Size: rpcRanks, Listen: addrs[r], ParentAddr: parent,
					RingNextAddr: next, Key: key, Modules: mods, DialTimeout: 20 * time.Second,
				})
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			s.close()
			return nil, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	for i, r := range rpcClientRanks {
		s.handles[i] = s.brokers[r].B.NewHandle()
	}
	return s, nil
}

// rpcClient is one client process: a handle at a leaf rank and its one
// KVS client. A kvs.Client's pending puts are shared by everyone using
// it, so the client's commits run one at a time (put, commit, read
// back), as a single-threaded process would issue them; the wait for the
// previous commit counts in a commit's latency.
type rpcClient struct {
	h    *broker.Handle
	kc   *kvs.Client
	mu   sync.Mutex
	next []int64 // per key slot, the value its next commit writes
}

// rpcState is the per-run state the checks need.
type rpcState struct {
	clients [2]*rpcClient
	fails   *failures
	// floor is, per reader, the highest value of each of the other
	// client's keys that a completed read returned.
	mu    sync.Mutex
	floor [2][]int64
}

func newRPCState(s *tcpSession, fails *failures) *rpcState {
	st := &rpcState{fails: fails}
	for c, h := range s.handles {
		st.clients[c] = &rpcClient{h: h, kc: kvs.NewClient(h), next: make([]int64, rpcSlots)}
		st.floor[c] = make([]int64, rpcSlots)
	}
	return st
}

// populate commits every key slot of both clients once, before timing,
// and has each client wait until it sees both commits: a get may target
// any slot of the other client from the first request on.
func (st *rpcState) populate() error {
	var version uint64
	for c, cl := range st.clients {
		for slot := 0; slot < rpcSlots; slot++ {
			if err := cl.kc.PutRaw(rpcKey(c, slot), []byte("1")); err != nil {
				return err
			}
			cl.next[slot] = 2
		}
		v, err := cl.kc.Commit()
		if err != nil {
			return err
		}
		version = max(version, v)
	}
	for _, cl := range st.clients {
		if err := cl.kc.WaitVersion(version); err != nil {
			return err
		}
	}
	return nil
}

// do performs one request, recording spans under trace into b, and
// reports whether it and its checks succeeded.
func (st *rpcState) do(q rpcReq, b *buf, trace, parent uint64) bool {
	cl := st.clients[q.client]
	switch q.kind {
	case opCommit:
		cl.mu.Lock()
		defer cl.mu.Unlock()
		key, v := rpcKey(q.client, q.arg), cl.next[q.arg]
		cl.next[q.arg]++
		t0 := time.Now()
		err := cl.kc.PutRaw(key, []byte(strconv.FormatInt(v, 10)))
		t1 := time.Now()
		b.add(trace, parent, "kvs.put", t0, t1)
		if err != nil {
			st.fails.add("client %d put %s: %v", q.client, key, err)
			return false
		}
		_, err = cl.kc.Commit()
		t2 := time.Now()
		b.add(trace, parent, "kvs.commit", t1, t2)
		if err != nil {
			st.fails.add("client %d commit %s: %v", q.client, key, err)
			return false
		}
		got, err := st.getInt(cl.kc, key, b, trace, parent)
		if err != nil {
			st.fails.add("client %d read back %s: %v", q.client, key, err)
			return false
		}
		if got != v {
			st.fails.add("client %d read %s=%d after committing %d (read-your-writes)", q.client, key, got, v)
			return false
		}
	case opGet:
		key := rpcKey(1-q.client, q.arg)
		st.mu.Lock()
		floor := st.floor[q.client][q.arg]
		st.mu.Unlock()
		got, err := st.getInt(cl.kc, key, b, trace, parent)
		if err != nil {
			st.fails.add("client %d get %s: %v", q.client, key, err)
			return false
		}
		if got < floor {
			st.fails.add("client %d read %s=%d after reading %d (monotonic reads)", q.client, key, got, floor)
			return false
		}
		st.mu.Lock()
		st.floor[q.client][q.arg] = max(st.floor[q.client][q.arg], got)
		st.mu.Unlock()
	case opPing:
		t0 := time.Now()
		_, err := cl.h.RPC(wire.TopicPing, uint32(q.arg), nil)
		b.add(trace, parent, wire.TopicPing, t0, time.Now())
		if err != nil {
			st.fails.add("client %d ping rank %d: %v", q.client, q.arg, err)
			return false
		}
	}
	return true
}

func (st *rpcState) getInt(kc *kvs.Client, key string, b *buf, trace, parent uint64) (int64, error) {
	t0 := time.Now()
	raw, err := kc.GetRaw(key)
	b.add(trace, parent, "kvs.get", t0, time.Now())
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(string(raw), 10, 64)
}

// rpcTiming is one request's record: the index of the request, and
// when it was due, issued and done. In the closed loop a request is due
// when it is issued.
type rpcTiming struct {
	req               int
	due, issued, done time.Time
}

// openLoop issues requests 0..len(dues)-1, each when it is due (dues are
// offsets from start), whether or not earlier ones have completed.
// With inflight requests outstanding it waits for one to finish, which
// makes the generator late: the request is issued after its due time,
// and its latency still counts from the due time. do runs each request
// on its own goroutine.
func openLoop(start time.Time, dues []time.Duration, inflight int, do func(i int, due, issued time.Time)) []rpcTiming {
	out := make([]rpcTiming, len(dues))
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	for i, off := range dues {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		out[i].req, out[i].due, out[i].issued = i, due, time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i, out[i].due, out[i].issued)
			out[i].done = time.Now()
			<-sem
		}(i)
	}
	wg.Wait()
	return out
}

// closedLoop runs each client's stream of requests (indices passed to
// do) in order, one at a time: a client sends its next request when its
// previous one has completed, as a single-threaded process would. It
// stops at until, or when a stream runs out, and returns the timing of
// every request it ran and how many of each stream's requests those
// were.
func closedLoop(streams [2][]int, until time.Time, do func(i int)) ([]rpcTiming, [2]int) {
	var per [2][]rpcTiming
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, i := range streams[c] {
				t0 := time.Now()
				if !t0.Before(until) {
					return
				}
				do(i)
				per[c] = append(per[c], rpcTiming{req: i, due: t0, issued: t0, done: time.Now()})
			}
		}(c)
	}
	wg.Wait()
	return append(per[0], per[1]...), [2]int{len(per[0]), len(per[1])}
}

// latencies returns each request's latency from its due time and how
// late the generator issued it.
func latencies(ts []rpcTiming) (lat, late sample) {
	for _, t := range ts {
		lat = append(lat, t.done.Sub(t.due))
		late = append(late, t.issued.Sub(t.due))
	}
	return lat, late
}

// rate returns the requests of ts completed per second from start to the
// last completion.
func rate(ts []rpcTiming, start time.Time) float64 {
	var last time.Time
	for _, t := range ts {
		if t.done.After(last) {
			last = t.done
		}
	}
	return ratio(float64(len(ts)), last.Sub(start).Seconds())
}

// rpcTraced reports whether a traced run traces request i of a
// schedule: every other one, so that the rest give the tracing
// overhead.
func rpcTraced(i int) bool { return i%2 == 0 }

func runRPC(cfg config) (*outcome, error) {
	o := newOutcome()
	var setups []time.Duration
	var s *tcpSession
	for i := 0; i < rpcSetups; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = bringUpTCP(); err != nil {
			return nil, fmt.Errorf("TCP session bring-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer s.close()
	fails := &failures{}
	st := newRPCState(s, fails)
	if err := st.populate(); err != nil {
		return nil, fmt.Errorf("populate keys: %w", err)
	}
	brokers := make([]*broker.Broker, rpcRanks)
	for r, b := range s.brokers {
		brokers[r] = b.B
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var attempted, failed atomic.Int64
	// do runs request i of sched, traced or not.
	do := func(sched []rpcReq, i int, due, issued time.Time) {
		attempted.Add(1)
		var ok bool
		if tr == nil || !rpcTraced(i) {
			ok = st.do(sched[i], nil, 0, 0)
		} else {
			b, trace, root := tr.buffer(), tr.id(), tr.id()
			b.add(trace, root, "gen.late", due, issued)
			ok = st.do(sched[i], b, trace, root)
			b.addID(trace, root, 0, "rpc.request", due, time.Now())
			b.flush()
		}
		if !ok {
			failed.Add(1)
		}
	}
	phase := cfg.seconds / 2

	// The closed loop, which the end-to-end metrics come from. Its
	// seeded streams are sized for rpcClosedCap requests per second; its
	// first rpcWarmup is left out of the metrics.
	closed := genRPCSchedule(cfg.seed, rpcClosedCap, rpcWarmup+phase, rpcClientRanks, rpcRanks, rpcSlots)
	var streams [2][]int
	for i, q := range closed {
		streams[q.client] = append(streams[q.client], i)
	}
	closedDo := func(i int) {
		now := time.Now()
		do(closed, i, now, now)
	}
	runtime.GC() // the bring-ups' garbage is not the workload's
	_, used := closedLoop(streams, time.Now().Add(rpcWarmup), closedDo)
	for c := range streams {
		streams[c] = streams[c][used[c]:]
	}
	before, cpu0, start := snapshotAll(brokers), cpuTime(), time.Now()
	timings, _ := closedLoop(streams, start.Add(phase), closedDo)
	cpu := cpuTime() - cpu0
	d := mergedDelta(before, snapshotAll(brokers))
	lat, _ := latencies(timings)
	var traced, untraced sample
	for j, t := range timings {
		if tr != nil && rpcTraced(t.req) {
			traced = append(traced, lat[j])
		} else {
			untraced = append(untraced, lat[j])
		}
	}

	// The open loop at a fixed rate, printed only: at a low rate its
	// latency is mostly wake-ups across the TCP hops, and on a shared
	// machine those follow the time other tenants take from its CPUs.
	open := genRPCSchedule(cfg.seed, rpcRate, rpcWarmup+phase, rpcClientRanks, rpcRanks, rpcSlots)
	dues := make([]time.Duration, len(open))
	for i, q := range open {
		dues[i] = q.due
	}
	runtime.GC()
	openTimings := openLoop(time.Now(), dues, rpcInflight, func(i int, due, issued time.Time) {
		do(open, i, due, issued)
	})
	// The first rpcWarmup of the schedule is left out.
	openTimings = openTimings[int(rpcWarmup.Seconds()*rpcRate):]
	openLat, late := latencies(openTimings)

	o.attempted, o.failed = attempted.Load(), failed.Load()
	ops := int64(len(timings))
	sortedLat, sortedOpen := lat.sorted(), openLat.sorted()
	o.e2e["setup_s"] = medianDuration(setups).Seconds()
	o.e2e["latency_p50_ms"] = ms(sortedLat.quantile(0.5))
	// The gated tail is the p90: the slowest 1% are the requests caught
	// in process-wide stalls, which vary from run to run (README.md).
	o.e2e["latency_tail_ms"] = ms(sortedLat.quantile(0.90))
	o.e2e["throughput_per_s"] = rate(timings, start)
	o.reportf("%s: %d TCP ranks, clients at ranks %v, mix %d%% commit, %d%% get, %d%% ping; closed loop, then open loop at %d/s, %v each",
		cfg.workload, rpcRanks, rpcClientRanks, rpcMix[opCommit], rpcMix[opGet], rpcMix[opPing], rpcRate, phase)
	o.named("setup_s", o.e2e["setup_s"], "s", "setup_s", fmt.Sprintf("median of %d bring-ups", len(setups)))
	o.named("rpc.closed.ms_p50", o.e2e["latency_p50_ms"], "ms", "latency_p50_ms", "closed loop: "+lat.describe())
	o.named("rpc.closed.ms_p90", o.e2e["latency_tail_ms"], "ms", "latency_tail_ms", "")
	o.named("rpc.closed.ms_p99", ms(sortedLat.quantile(0.99)), "ms", "", "")
	o.named("rpc.closed.per_s", o.e2e["throughput_per_s"], "1/s", "throughput_per_s", "requests completed")
	o.named("rpc.lo.ms_p50", ms(sortedOpen.quantile(0.5)), "ms", "", fmt.Sprintf("open loop at %d/s, from due time: %s", rpcRate, openLat.describe()))
	o.named("rpc.lo.ms_p90", ms(sortedOpen.quantile(0.90)), "ms", "", "")
	o.named("rpc.lo.ms_p99", ms(sortedOpen.quantile(0.99)), "ms", "", "")
	o.named("rpc.lo.per_s", rate(openTimings, openTimings[0].due), "1/s", "", "requests completed")
	o.named("gen.late_ms_p99", ms(late.sorted().quantile(0.99)), "ms", "", "issue minus due: "+late.describe())

	o.layers["session.bringup_ms"] = ms(medianDuration(setups))
	registryLayers(o.layers, d, ops)
	processLayers(o.layers, cpu, ops)
	o.layers["gen.late_ms_p99"] = ms(late.sorted().quantile(0.99))
	if tr != nil {
		named := byName(tr.all())
		spanP50(o.layers, "kvs.put_us_p50", named, "kvs.put", us)
		spanP50(o.layers, "kvs.get_us_p50", named, "kvs.get", us)
		o.layers["trace.overhead_frac"] = overheadFrac(traced, untraced)
	}
	return o, finishTrace(o, cfg, tr)
}
