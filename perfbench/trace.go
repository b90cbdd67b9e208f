package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; parent is an index into the span
// list (-1 for a root) and op the id of the op (or reference call) it
// belongs to.
type span struct {
	name       string
	start, end int64
	parent     int
	op         int
}

// tracer records spans and per-op counters in memory; they are written out
// when the run ends. A nil *tracer records nothing, so untraced runs call
// the same methods at the cost of a nil check.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int // stack of open span indexes
	op     int
	counts map[string]map[int]float64 // counter name → op id → value
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]map[int]float64{}}
}

// beginOp starts attributing spans and counters to op id.
func (t *tracer) beginOp(id int) {
	if t == nil {
		return
	}
	t.op = id
	t.open = t.open[:0]
}

// start opens a span named name as a child of the innermost open span and
// returns its handle for end.
func (t *tracer) start(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.t0)), parent: parent, op: t.op})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span opened by start.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// rename renames a recorded span.
func (t *tracer) rename(i int, name string) {
	if t == nil {
		return
	}
	t.spans[i].name = name
}

// count adds v to the named counter of the current op.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	m := t.counts[name]
	if m == nil {
		m = map[int]float64{}
		t.counts[name] = m
	}
	m[t.op] += v
}

// spanMS returns, per op, the summed duration in ms of the spans named name.
func (t *tracer) spanMS(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.name == name {
			out[s.op] += float64(s.end-s.start) / 1e6
		}
	}
	return out
}

// selfTimes returns each span name's call count, total and self time in ms;
// self time is a span's duration minus the time its child spans cover.
func (t *tracer) selfTimes() map[string][3]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string][3]float64{}
	for i, s := range t.spans {
		a := out[s.name]
		a[0]++
		a[1] += float64(s.end-s.start) / 1e6
		a[2] += float64(s.end-s.start-child[i]) / 1e6
		out[s.name] = a
	}
	return out
}

// writeFile writes the spans as tab-separated lines:
// op, index, parent, name, start_ns, end_ns.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, i, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// printSelfTimes prints the self-time table to standard error.
func printSelfTimes(t *tracer) {
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%-24s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		a := st[n]
		fmt.Fprintf(os.Stderr, "%-24s %8.0f %12.3f %12.3f\n", n, a[0], a[1], a[2])
	}
}
