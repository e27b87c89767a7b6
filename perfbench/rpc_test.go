package main

import (
	"sync"
	"testing"
	"time"
)

func dues(n int, every time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * every
	}
	return out
}

// A stall (one request in flight, each taking longer than the spacing)
// makes the generator late, and every later request's latency counts
// from when it was due, so the stall shows in all of them.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	ts := openLoop(time.Now(), dues(10, 5*time.Millisecond), 1,
		func(int, time.Time, time.Time) { time.Sleep(service) })
	lat, late := latencies(ts)
	for i := range ts {
		if !ts[i].issued.Before(ts[i].due) && lat[i] < late[i]+service {
			t.Errorf("request %d: latency %v does not include lateness %v plus service %v", i, lat[i], late[i], service)
		}
		if ts[i].issued.Before(ts[i].due) {
			t.Errorf("request %d issued %v before it was due", i, ts[i].due.Sub(ts[i].issued))
		}
	}
	// Request 9 was due at 45ms but could not start before 9 services
	// (180ms) had finished.
	if late[9] < 100*time.Millisecond {
		t.Errorf("request 9 late by %v, want at least 100ms", late[9])
	}
	if late[9] <= late[1] {
		t.Errorf("lateness did not grow under the stall: %v then %v", late[1], late[9])
	}
}

// With room in flight, requests go out on time and overlap.
func TestOpenLoopDoesNotWaitForCompletions(t *testing.T) {
	const service = 30 * time.Millisecond
	start := time.Now()
	ts := openLoop(start, dues(10, 2*time.Millisecond), 100,
		func(int, time.Time, time.Time) { time.Sleep(service) })
	lat, late := latencies(ts)
	for i := range ts {
		if lat[i] < service {
			t.Errorf("request %d latency %v below its service time", i, lat[i])
		}
	}
	if late[9] > 20*time.Millisecond {
		t.Errorf("request 9 late by %v with no limit reached", late[9])
	}
	if total := time.Since(start); total > 5*service {
		t.Errorf("10 overlapping requests took %v", total)
	}
}

// The closed loop runs one request at a time per client, each stream's
// requests once and in order, and stops at the deadline.
func TestClosedLoopOneAtATimePerClient(t *testing.T) {
	var streams [2][]int
	for i := 0; i < 400; i++ {
		streams[i%2] = append(streams[i%2], i)
	}
	var mu sync.Mutex
	var inflight, peak [2]int
	var order [2][]int
	do := func(i int) {
		mu.Lock()
		inflight[i%2]++
		peak[i%2] = max(peak[i%2], inflight[i%2])
		order[i%2] = append(order[i%2], i)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight[i%2]--
		mu.Unlock()
	}
	ts, used := closedLoop(streams, time.Now().Add(40*time.Millisecond), do)
	if peak != [2]int{1, 1} {
		t.Errorf("peak in flight per client %v, want 1 each", peak)
	}
	if len(ts) != used[0]+used[1] {
		t.Errorf("%d timings, used %v", len(ts), used)
	}
	for c := range streams {
		if used[c] == 0 || used[c] == len(streams[c]) {
			t.Errorf("client %d ran %d of %d requests: want some, stopped by the deadline", c, used[c], len(streams[c]))
		}
		for k, i := range order[c] {
			if i != streams[c][k] {
				t.Fatalf("client %d ran request %d as its %dth, want %d", c, i, k, streams[c][k])
			}
		}
	}
	for _, tm := range ts {
		if tm.done.Before(tm.issued) || tm.due != tm.issued {
			t.Errorf("request %d: due %v issued %v done %v", tm.req, tm.due, tm.issued, tm.done)
		}
	}

	// A stream that runs out ends its client early.
	short := [2][]int{{0, 2}, {1}}
	ts, used = closedLoop(short, time.Now().Add(time.Minute), func(int) {})
	if len(ts) != 3 || used != [2]int{2, 1} {
		t.Errorf("short streams: %d timings, used %v", len(ts), used)
	}
}
