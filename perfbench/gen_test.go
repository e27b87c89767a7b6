package main

import (
	"reflect"
	"testing"
	"time"
)

// The seed alone decides every input: the same seed gives an identical
// stream, another seed a different one.
func TestGeneratorsAreSeeded(t *testing.T) {
	pmi := func(seed int64) []pmiRound {
		return []pmiRound{
			genPMIRound(seed, 0, 64, pmiGets, pmiValueSize),
			genPMIRound(seed, 1, 64, pmiGets, pmiValueSize),
		}
	}
	jobs := func(seed int64) [][]int {
		return [][]int{genJobNodes(seed, 0, 100, jobMaxNodes), genJobNodes(seed, 1, 100, jobMaxNodes)}
	}
	rpc := func(seed int64) []rpcReq {
		return genRPCSchedule(seed, rpcRate, time.Second, rpcClientRanks, rpcRanks, rpcSlots)
	}
	for _, seed := range []int64{1, 2, 12345} {
		if !reflect.DeepEqual(pmi(seed), pmi(seed)) {
			t.Errorf("seed %d: pmi-exchange inputs differ between two generations", seed)
		}
		if !reflect.DeepEqual(jobs(seed), jobs(seed)) {
			t.Errorf("seed %d: job node counts differ between two generations", seed)
		}
		if !reflect.DeepEqual(rpc(seed), rpc(seed)) {
			t.Errorf("seed %d: tcp-rpc schedule differs between two generations", seed)
		}
	}
	if reflect.DeepEqual(pmi(1), pmi(2)) {
		t.Error("seeds 1 and 2 give the same pmi-exchange inputs")
	}
	if reflect.DeepEqual(jobs(1), jobs(2)) {
		t.Error("seeds 1 and 2 give the same job node counts")
	}
	if reflect.DeepEqual(rpc(1), rpc(2)) {
		t.Error("seeds 1 and 2 give the same tcp-rpc schedule")
	}
}

// Rounds and episodes of one seed differ from each other too, so a run
// does not repeat one input.
func TestGeneratorStreamsVaryWithinASeed(t *testing.T) {
	if reflect.DeepEqual(genPMIRound(1, 0, 64, pmiGets, pmiValueSize), genPMIRound(1, 1, 64, pmiGets, pmiValueSize)) {
		t.Error("rounds 0 and 1 have the same inputs")
	}
	if reflect.DeepEqual(genJobNodes(1, 0, 100, jobMaxNodes), genJobNodes(1, 1, 100, jobMaxNodes)) {
		t.Error("episodes 0 and 1 have the same node counts")
	}
}

func TestPMIRoundShape(t *testing.T) {
	const procs = 256
	in := genPMIRound(7, 3, procs, pmiGets, pmiValueSize)
	seen := map[string]bool{}
	for p, v := range in.values {
		if len(v) != pmiValueSize+2 || v[0] != '"' || v[len(v)-1] != '"' {
			t.Fatalf("proc %d: value is not a %d-byte JSON string", p, pmiValueSize)
		}
		if seen[string(v)] {
			t.Fatalf("proc %d: value not unique", p)
		}
		seen[string(v)] = true
		if len(in.targets[p]) != pmiGets {
			t.Fatalf("proc %d: %d gets, want %d", p, len(in.targets[p]), pmiGets)
		}
		for _, tgt := range in.targets[p] {
			if tgt < 0 || tgt >= procs {
				t.Fatalf("proc %d: target %d out of range", p, tgt)
			}
		}
	}
}

func TestJobNodesInRange(t *testing.T) {
	for _, n := range genJobNodes(3, 1, 1000, jobMaxNodes) {
		if n < 1 || n > jobMaxNodes {
			t.Fatalf("node count %d outside [1, %d]", n, jobMaxNodes)
		}
	}
}

func TestRPCScheduleShape(t *testing.T) {
	sched := genRPCSchedule(5, 1000, 2*time.Second, rpcClientRanks, rpcRanks, rpcSlots)
	if len(sched) != 2000 {
		t.Fatalf("%d requests, want 2000", len(sched))
	}
	counts := map[int]int{}
	for i, q := range sched {
		if want := time.Duration(i) * time.Millisecond; q.due != want {
			t.Fatalf("request %d due at %v, want %v", i, q.due, want)
		}
		counts[q.kind]++
		switch q.kind {
		case opCommit, opGet:
			if q.arg < 0 || q.arg >= rpcSlots {
				t.Fatalf("request %d: slot %d out of range", i, q.arg)
			}
		case opPing:
			dist := (q.arg - rpcClientRanks[q.client] + rpcRanks) % rpcRanks
			if dist < rpcRanks/4 || dist > 3*rpcRanks/4 {
				t.Fatalf("request %d: ping target %d only %d ranks from %d", i, q.arg, dist, rpcClientRanks[q.client])
			}
		}
	}
	for kind, pct := range rpcMix {
		if got := counts[kind] * 100 / len(sched); got < pct-5 || got > pct+5 {
			t.Errorf("kind %d is %d%% of the schedule, want about %d%%", kind, got, pct)
		}
	}
}
