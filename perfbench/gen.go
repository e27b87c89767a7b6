package main

import (
	"math/rand"
	"strconv"
	"time"
)

// The generators turn the workload seed into the inputs the program
// receives: values, access offsets, node counts, the request mix and the
// arrival order. Nothing else in a run draws randomness, so one seed
// gives one input stream.

// splitmix64 mixes a seed and a stream number into an RNG seed, so that
// nearby seeds and streams give unrelated sequences.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed)*0x100000001b3 ^ stream))))
}

// pmiRound is one round's inputs: each process's value (a JSON string
// of valueSize letters that starts with the round and process number)
// and the processes whose values it reads.
type pmiRound struct {
	values  [][]byte
	targets [][]int
}

// genPMIRound generates round r for procs processes, each reading gets
// values at a seeded start and stride.
func genPMIRound(seed int64, r, procs, gets, valueSize int) pmiRound {
	rng := rngFor(seed, 1<<32|uint64(r))
	out := pmiRound{values: make([][]byte, procs), targets: make([][]int, procs)}
	raw := make([]byte, valueSize)
	for p := 0; p < procs; p++ {
		rng.Read(raw)
		v := make([]byte, 0, valueSize+2)
		v = append(v, '"')
		v = strconv.AppendInt(v, int64(r), 10)
		v = append(v, '.')
		v = strconv.AppendInt(v, int64(p), 10)
		v = append(v, '.')
		for _, c := range raw[:valueSize-(len(v)-1)] {
			v = append(v, 'a'+c%26)
		}
		out.values[p] = append(v, '"')

		start, stride := rng.Intn(procs), 1+rng.Intn(procs-1)
		t := make([]int, gets)
		for k := range t {
			t[k] = (start + k*stride) % procs
		}
		out.targets[p] = t
	}
	return out
}

// genJobNodes returns the node counts of n jobs, each in [1, maxNodes].
func genJobNodes(seed int64, episode, n, maxNodes int) []int {
	rng := rngFor(seed, 2<<32|uint64(episode))
	out := make([]int, n)
	for i := range out {
		out[i] = 1 + rng.Intn(maxNodes)
	}
	return out
}

// Request kinds of the tcp-rpc mix.
const (
	opCommit = iota // put+commit of the client's own key, then read it back
	opGet           // read a key the other client commits
	opPing          // cmb.ping to a far rank over the ring
)

// rpcMix is the share of each kind, in percent.
var rpcMix = [...]int{opCommit: 10, opGet: 60, opPing: 30}

// rpcReq is one open-loop request: when it is due (from the start of
// the schedule), which client sends it, its kind, and its argument (the
// key slot for a commit or get, the target rank for a ping).
type rpcReq struct {
	due    time.Duration
	client int
	kind   int
	arg    int
}

// genRPCSchedule generates the requests due in [0, span) at a fixed
// rate, evenly spaced, for two clients at the given ranks of a size-rank
// session with slots key slots per client.
func genRPCSchedule(seed int64, rate int, span time.Duration, ranks [2]int, size, slots int) []rpcReq {
	rng := rngFor(seed, 3<<32|uint64(rate))
	n := int(span.Seconds() * float64(rate))
	out := make([]rpcReq, n)
	for i := range out {
		q := rpcReq{due: time.Duration(i) * time.Second / time.Duration(rate), client: rng.Intn(2)}
		switch x := rng.Intn(100); {
		case x < rpcMix[opCommit]:
			q.kind, q.arg = opCommit, rng.Intn(slots)
		case x < rpcMix[opCommit]+rpcMix[opGet]:
			q.kind, q.arg = opGet, rng.Intn(slots)
		default:
			// A far rank: at least a quarter of the ring away.
			q.kind = opPing
			q.arg = (ranks[q.client] + size/4 + rng.Intn(size/2+1)) % size
		}
		out[i] = q
	}
	return out
}
