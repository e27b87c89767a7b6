package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer (or one phase
// it observed). Spans of one round, job or request share a trace ID;
// parent is the ID of the span that caused this one (0 for a root).
type span struct {
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  time.Duration // since the tracer's epoch
	end    time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no guard.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id allocates a span or trace ID (never 0).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// at converts a wall-clock instant to the tracer's timeline.
func (t *tracer) at(when time.Time) time.Duration { return when.Sub(t.epoch) }

// buf is a goroutine-local span buffer, flushed into the tracer once,
// so that parallel simulated processes do not contend on every span.
type buf struct {
	t     *tracer
	spans []span
}

func (t *tracer) buffer() *buf { return &buf{t: t} }

// add records a span from start to end with a fresh ID, returning it.
func (b *buf) add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if b == nil || b.t == nil {
		return 0
	}
	id := b.t.id()
	b.spans = append(b.spans, span{trace: trace, id: id, parent: parent, name: name,
		start: b.t.at(start), end: b.t.at(end)})
	return id
}

// addID records a span under an ID allocated beforehand (a parent whose
// children finished first).
func (b *buf) addID(trace, id, parent uint64, name string, start, end time.Time) {
	if b == nil || b.t == nil {
		return
	}
	b.spans = append(b.spans, span{trace: trace, id: id, parent: parent, name: name,
		start: b.t.at(start), end: b.t.at(end)})
}

func (b *buf) flush() {
	if b == nil || b.t == nil || len(b.spans) == 0 {
		return
	}
	b.t.mu.Lock()
	b.t.spans = append(b.t.spans, b.spans...)
	b.t.mu.Unlock()
	b.spans = nil
}

// all returns every recorded span (call after all buffers flushed).
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName groups span durations by span name.
func byName(spans []span) map[string]sample {
	out := map[string]sample{}
	for _, s := range spans {
		out[s.name] = append(out[s.name], s.dur())
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (the
// parallel processes of one round) count their union once, and a child
// running past its parent's end counts only inside the parent.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s.start, s.end, children[s.id])
	}
	return out
}

// covered returns the length of [start, end) covered by the union of the
// children's intervals.
func covered(start, end time.Duration, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, start), min(k.end, end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// uncoveredFrac is the share of the time of spans that have children
// which no child covers: time the benchmark spent between the layer
// calls it times (its own checks, goroutine wake-ups).
func uncoveredFrac(spans []span) float64 {
	self := selfTimes(spans)
	parents := map[uint64]bool{}
	for _, s := range spans {
		parents[s.parent] = true
	}
	var total, uncovered time.Duration
	for _, s := range spans {
		if parents[s.id] {
			total += s.dur()
			uncovered += self[s.id]
		}
	}
	return ratio(float64(uncovered), float64(total))
}

// writeSpans writes spans as tab-separated lines (trace, id, parent,
// name, start_ns, end_ns, self_ns) to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := selfTimes(spans)
	fmt.Fprintln(w, "trace\tid\tparent\tname\tstart_ns\tend_ns\tself_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", s.trace, s.id, s.parent, s.name,
			int64(s.start), int64(s.end), int64(self[s.id]))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
