package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// Span names. Each is a public call into one layer, timed from outside by
// the benchmark; "op" and "cluster.round" are the roots of one operation.
const (
	spOp       = iota // one workload op: a round trip or one verified bulk message
	spRSR             // core: Startpoint.RSR carrying the op's request
	spReplyRSR        // core: Startpoint.RSR sent back from the peer's handler
	spPoll            // core: Context.Poll that delivered at least one frame
	spHandler         // the benchmark's own RSR handler body
	spCall            // rpc: Call
	spAwait           // rpc: Future.Await
	spReply           // rpc: Responder.Reply
	spRound           // cluster: one gossip round (Step sweep plus poll sweeps)
	spStep            // cluster: Node.Step
	numSpanNames
)

var spanNames = [numSpanNames]string{"op", "core.rsr", "core.rsr_reply", "core.poll", "app.handler", "rpc.call", "rpc.await", "rpc.reply", "cluster.round", "cluster.step"}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent is the index of the enclosing span (-1 for a root) and op numbers
// the operation the span belongs to.
type span struct {
	start, end int64
	op         int64
	parent     int32
	name       uint8
}

// tracer keeps spans in a fixed in-memory array, filled from the
// benchmark's one load goroutine. When the array is full further spans are dropped
// and full reports true, which ends the traced phase.
type tracer struct {
	path  string // which workload path, and whether full or mini
	epoch time.Time
	spans []span
	next  int
}

// Span log capacities (40 bytes a span): the traced workload's own path, and
// the short paths that fill in the layers it does not reach.
const (
	fullSpans = 1 << 17
	miniSpans = 1 << 15
)

func newTracer(e *env, path string, capacity int) *tracer {
	t := &tracer{path: path, epoch: time.Now(), spans: make([]span, capacity)}
	e.tracers = append(e.tracers, t)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) full() bool { return t.next >= len(t.spans) }

// begin opens a span and returns its index, or -1 when tracing is off or
// the log is full. A nil tracer is tracing off.
func (t *tracer) begin(name uint8, parent int32, op int64) int32 {
	if t == nil {
		return -1
	}
	return t.record(name, parent, op, t.now(), 0)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = t.now()
}

// record stores a span whose bounds are already known.
func (t *tracer) record(name uint8, parent int32, op int64, start, end int64) int32 {
	i := t.next
	if i >= len(t.spans) {
		return -1
	}
	t.next++
	t.spans[i] = span{start: start, end: end, op: op, parent: parent, name: name}
	return int32(i)
}

// pollSpan times one Context.Poll call on one goroutine. The span is only
// stored when the poll delivered something, but a handler running inside the
// poll may need its id first; parentID stores it on demand.
type pollSpan struct {
	t      *tracer
	parent int32
	op     int64
	start  int64
	id     int32
}

func (p *pollSpan) open(t *tracer, parent int32, op int64) {
	*p = pollSpan{t: t, parent: parent, op: op, id: -1}
	if t != nil {
		p.start = t.now()
	}
}

// parentID returns the poll's span id for a handler running inside it.
func (p *pollSpan) parentID() int32 {
	if p.t == nil {
		return -1
	}
	if p.id < 0 {
		p.id = p.t.record(spPoll, p.parent, p.op, p.start, 0)
	}
	return p.id
}

// close ends the poll, storing its span if it delivered frames, and returns
// its duration in nanoseconds.
func (p *pollSpan) close(delivered int) int64 {
	if p.t == nil {
		return 0
	}
	end := p.t.now()
	switch {
	case p.id >= 0:
		p.t.spans[p.id].end = end
	case delivered > 0:
		p.t.record(spPoll, p.parent, p.op, p.start, end)
	}
	// A handler run outside any poll (from a send's opportunistic poll pass)
	// must not attach to this finished span.
	p.t = nil
	return end - p.start
}

// spanStats summarises one span name: durations and self times (duration
// minus the part of it covered by child spans), in nanoseconds.
type spanStats struct {
	dur, self []int64
}

// summarize computes per-name durations and self times over a tracer's
// complete spans.
func (t *tracer) summarize() [numSpanNames]spanStats {
	var out [numSpanNames]spanStats
	n := min(t.next, len(t.spans))
	spans := t.spans[:n]
	children := make([][]int32, n)
	for i, s := range spans {
		if s.parent >= 0 && int(s.parent) < n {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	var iv [][2]int64
	for i, s := range spans {
		if s.end < s.start || s.end == 0 {
			continue // opened but never closed (log filled mid-op)
		}
		iv = iv[:0]
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.start, s.start), min(cs.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.name].dur = append(out[s.name].dur, s.end-s.start)
		out[s.name].self = append(out[s.name].self, s.end-s.start-covered(iv))
	}
	return out
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// p50us is the median of a span's durations (or self times) in microseconds;
// ok is false when the span was never recorded.
func p50us(v []int64) (us float64, ok bool) {
	if len(v) == 0 {
		return 0, false
	}
	return usOf(percentile(slices.Clone(v), 50)), true
}

// noteSpans adds a per-span table (count, p50 duration, p50 self time) to
// the run's human-readable lines.
func noteSpans(r *result, t *tracer, st [numSpanNames]spanStats) {
	for name, s := range st {
		if len(s.dur) == 0 {
			continue
		}
		d, _ := p50us(s.dur)
		self, _ := p50us(s.self)
		r.note("span %-14s %-14s n=%-7d p50=%10.3fus self_p50=%10.3fus", t.path, spanNames[name], len(s.dur), d, self)
	}
}

// writeTraces writes every tracer's spans as JSON lines, one span a line,
// to <out>/traces/<workload>.jsonl, replacing the previous run's file.
func writeTraces(e *env) (string, error) {
	dir := filepath.Join(e.outDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, e.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, t := range e.tracers {
		n := min(t.next, len(t.spans))
		for i, s := range t.spans[:n] {
			fmt.Fprintf(w, "{\"path\":%q,\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				t.path, i, s.parent, s.op, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
