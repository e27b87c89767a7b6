package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func msd(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// A span's self time is its duration minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: msd(0), end: msd(100)},
		// Two overlapping children cover [10, 40) once.
		{id: 2, parent: 1, name: "a", start: msd(10), end: msd(30)},
		{id: 3, parent: 1, name: "b", start: msd(20), end: msd(40)},
		// A disjoint child covers [50, 60).
		{id: 4, parent: 1, name: "c", start: msd(50), end: msd(60)},
		// A child running past the parent counts only up to its end.
		{id: 5, parent: 1, name: "d", start: msd(90), end: msd(120)},
		// A grandchild reduces its parent's self time, not the root's.
		{id: 6, parent: 4, name: "e", start: msd(52), end: msd(55)},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: msd(100 - 30 - 10 - 10),
		2: msd(20), 3: msd(20),
		4: msd(10 - 3),
		5: msd(30), 6: msd(3),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %v, want %v", id, self[id], w)
		}
	}
}

func TestUncoveredFracCountsOnlyParents(t *testing.T) {
	spans := []span{
		{id: 1, start: msd(0), end: msd(10)},
		{id: 2, parent: 1, start: msd(0), end: msd(4)},
		{id: 3, parent: 1, start: msd(6), end: msd(10)},
	}
	if got := uncoveredFrac(spans); got != 0.2 {
		t.Errorf("uncoveredFrac = %v, want 0.2", got)
	}
}

// A nil tracer is the untraced mode: recording through it is a no-op.
func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	b := tr.buffer()
	b.add(tr.id(), 0, "x", time.Now(), time.Now())
	b.flush()
	if got := tr.all(); len(got) != 0 {
		t.Fatalf("nil tracer kept %d spans", len(got))
	}
}

func TestBuffersFlushIntoTracer(t *testing.T) {
	tr := newTracer()
	trace, root := tr.id(), tr.id()
	b := tr.buffer()
	t0 := time.Now()
	child := b.add(trace, root, "child", t0, t0.Add(msd(1)))
	b.addID(trace, root, 0, "root", t0, t0.Add(msd(2)))
	if len(tr.all()) != 0 {
		t.Fatal("spans visible before flush")
	}
	b.flush()
	spans := tr.all()
	if len(spans) != 2 || spans[0].id != child || spans[0].parent != root || spans[1].id != root {
		t.Fatalf("flushed spans = %+v", spans)
	}
	if d := byName(spans)["child"]; len(d) != 1 || d[0] != msd(1) {
		t.Fatalf("byName child = %v", d)
	}
}

func TestWriteSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "spans.tsv")
	spans := []span{{trace: 1, id: 2, name: "root", start: msd(1), end: msd(3)}}
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[1] != "1\t2\t0\troot\t1000000\t3000000\t2000000" {
		t.Fatalf("spans file = %q", data)
	}
}

// The fence split puts the time before the last participant entered on
// the straggler side and the rest on the KVS side.
func TestFenceSplit(t *testing.T) {
	spans := []span{
		{trace: 1, name: "kvs.fence", start: msd(0), end: msd(50)},
		{trace: 1, name: "kvs.fence", start: msd(30), end: msd(51)},
		{trace: 2, name: "kvs.fence", start: msd(100), end: msd(110)},
		{trace: 1, name: "kvs.put", start: msd(40), end: msd(41)},
	}
	after, straggler := fenceSplit(spans)
	wantAfter := sample{msd(20), msd(21), msd(10)}
	wantStraggler := sample{msd(30), 0, 0}
	for i := range wantAfter {
		if after[i] != wantAfter[i] || straggler[i] != wantStraggler[i] {
			t.Fatalf("fenceSplit = %v / %v, want %v / %v", after, straggler, wantAfter, wantStraggler)
		}
	}
}

// A traced pmi-exchange run traces as many first rounds of a session as
// second ones, so the overhead compares like with like.
func TestPMITracedBalancesRoundPosition(t *testing.T) {
	var traced, untraced [pmiRoundsPerSession]int
	for r := 0; r < 8*pmiRoundsPerSession; r++ {
		if pmiTraced(r) {
			traced[r%pmiRoundsPerSession]++
		} else {
			untraced[r%pmiRoundsPerSession]++
		}
	}
	for pos := range traced {
		if traced[pos] != traced[0] || untraced[pos] != untraced[0] || traced[pos] != untraced[pos] {
			t.Fatalf("traced per round position %v, untraced %v", traced, untraced)
		}
	}
}
