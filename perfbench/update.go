package main

import (
	"fmt"
	"io"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Update workload sizes.
const (
	updatesPerOp = 100 // MutateDelta steps per batch
	// updateRound is the number of batches per round. Every round starts
	// from the stored graph with the same update stream; the violation set
	// after its last batch is compared with the oracle's.
	updateRound = 128
)

// updateWorkload: each op logs a batch of updates through a graph.WAL into
// a graph.Delta, revalidates from the previous violation set (the steps of
// core.RevalidateDelta), and folds the delta into the current graph with
// Frozen.RefreezeOpts under the default compaction policy.
type updateWorkload struct {
	*graphState
	stored  *graph.Frozen    // the loaded stored graph each round starts from
	initial []core.Violation // its violations
	gen     *gen.Generator
	want    map[violKey]bool // the oracle's violations after a round
}

func newUpdateWorkload(dir string) (workload, error) {
	g, err := loadGraphState(dir)
	if err != nil {
		return nil, err
	}
	want, err := readViolations(filepath.Join(dir, g.in.Expected))
	if err != nil {
		return nil, err
	}
	return &updateWorkload{graphState: g, want: want}, nil
}

func (w *updateWorkload) setup(tr *tracer) error {
	if err := w.graphState.setup(tr); err != nil {
		return err
	}
	w.stored, w.initial = w.base, w.viol
	w.gen = updateGenerator(w.in.Seed)
	return nil
}

func (w *updateWorkload) roundLen() int { return updateRound }

func (w *updateWorkload) op(i int, tr *tracer) func() error {
	d := graph.NewDelta(w.base)
	var sink countingWriter
	wal := graph.NewWAL(&sink, d)
	mut := &recordingMutator{m: wal, tr: tr}
	s := tr.start("gen.mutate")
	w.gen.MutateDelta(mut, updatesPerOp)
	c := tr.start("graph.wal_append")
	werr := wal.Close()
	tr.end(c)
	tr.end(s)

	// core.RevalidateDelta's own steps, so the overlay build is a span.
	s = tr.start("graph.overlay")
	ov := d.Overlay()
	tr.end(s)
	s = tr.start("core.revalidate")
	touched := d.TouchedNodes()
	viol, st, err := core.Revalidate(w.set, d.Base(), ov, touched, w.viol, core.RevalidateOptions{Workers: workers()})
	tr.end(s)
	if tr != nil {
		tr.count("graph.touched_nodes", float64(len(touched)))
		tr.count("core.reenumerated", float64(st.Reenumerated))
		tr.count("core.kept", float64(st.Kept))
		tr.count("graph.wal_bytes", float64(sink.n))
		tr.count("graph.updates", float64(mut.n))
	}

	s = tr.start("graph.refreeze")
	base, remap := w.base.RefreezeOpts(d, graph.RefreezeOptions{})
	tr.end(s)
	var rerr error
	if remap != nil {
		tr.rename(s, "graph.compact")
		viol, rerr = remapViolations(viol, remap)
	}
	w.base, w.viol = base, viol

	return func() error {
		if i == updateRound-1 {
			defer func() {
				w.base, w.viol = w.stored, w.initial
				w.gen = updateGenerator(w.in.Seed)
			}()
		}
		switch {
		case werr != nil:
			return fmt.Errorf("wal: %w", werr)
		case err != nil:
			return fmt.Errorf("revalidation: %w", err)
		case rerr != nil:
			return rerr
		case i != updateRound-1:
			return nil
		}
		return compareViolations(w.set, viol, w.want)
	}
}

// replayRound plays one update round from base as the ops do, without the
// revalidation: the same stream from g through a graph.WAL into a
// graph.Delta, folded in with RefreezeOpts. It replays every logged
// mutation and compaction remap into og, the oracle's copy of base. The
// generator process runs it to store the oracle's violations after a round.
func replayRound(base *graph.Frozen, g *gen.Generator, og *mapGraph) error {
	for i := 0; i < updateRound; i++ {
		d := graph.NewDelta(base)
		wal := graph.NewWAL(io.Discard, d)
		mut := &recordingMutator{m: wal, record: true}
		g.MutateDelta(mut, updatesPerOp)
		if err := wal.Close(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		for _, u := range mut.log {
			u.apply(og)
		}
		var remap graph.Remap
		base, remap = base.RefreezeOpts(d, graph.RefreezeOptions{})
		if remap != nil {
			if err := og.renumber(remap); err != nil {
				return err
			}
		}
	}
	return nil
}

// remapViolations translates violations across a compaction.
func remapViolations(vs []core.Violation, m graph.Remap) ([]core.Violation, error) {
	out := make([]core.Violation, len(vs))
	for i, v := range vs {
		h := v.Match.Clone()
		for j, n := range h {
			if h[j] = m.Of(n); h[j] == graph.InvalidNode {
				return nil, fmt.Errorf("compaction dropped node %d of a carried violation", n)
			}
		}
		out[i] = core.Violation{GFD: v.GFD, Match: h}
	}
	return out, nil
}

func (w *updateWorkload) reference(_ int, tr *tracer) {
	enumerate(tr, w.set, w.base)
}

// countingWriter is the WAL's destination: it keeps only the byte count.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// update is one logged mutation, as the oracle replays it.
type update struct {
	kind               byte // 'n' add node, 'a' set attribute, 'e' add edge, 'r' remove edge, 'x' remove node
	v, to              graph.NodeID
	label, attr, value string
}

func (u update) apply(g *mapGraph) {
	switch u.kind {
	case 'n':
		g.addNode(u.v, u.label)
	case 'a':
		g.setAttr(u.v, u.attr, u.value)
	case 'e':
		g.addEdge(u.v, u.to, u.label)
	case 'r':
		g.removeEdge(u.v, u.to, u.label)
	case 'x':
		g.removeNode(u.v)
	}
}

// recordingMutator fronts the WAL: it forwards every call and counts the
// mutations, logging each for the oracle when record is set. In a traced
// run each forwarded mutation is a graph.wal_append span.
type recordingMutator struct {
	m      *graph.WAL
	tr     *tracer
	record bool
	n      int
	log    []update
}

var _ graph.Mutator = (*recordingMutator)(nil)

func (r *recordingMutator) add(u update) {
	r.n++
	if r.record {
		r.log = append(r.log, u)
	}
}

func (r *recordingMutator) AddNode(label string) graph.NodeID {
	s := r.tr.start("graph.wal_append")
	v := r.m.AddNode(label)
	r.tr.end(s)
	r.add(update{kind: 'n', v: v, label: label})
	return v
}

func (r *recordingMutator) AddNodeWithAttrs(label string, attrs map[string]string) graph.NodeID {
	s := r.tr.start("graph.wal_append")
	v := r.m.AddNodeWithAttrs(label, attrs)
	r.tr.end(s)
	r.add(update{kind: 'n', v: v, label: label})
	for a, c := range attrs {
		r.add(update{kind: 'a', v: v, attr: a, value: c})
	}
	return v
}

func (r *recordingMutator) SetAttr(v graph.NodeID, attr, value string) {
	s := r.tr.start("graph.wal_append")
	r.m.SetAttr(v, attr, value)
	r.tr.end(s)
	r.add(update{kind: 'a', v: v, attr: attr, value: value})
}

func (r *recordingMutator) AddEdge(from, to graph.NodeID, label string) {
	s := r.tr.start("graph.wal_append")
	r.m.AddEdge(from, to, label)
	r.tr.end(s)
	r.add(update{kind: 'e', v: from, to: to, label: label})
}

func (r *recordingMutator) RemoveEdge(from, to graph.NodeID, label string) {
	s := r.tr.start("graph.wal_append")
	r.m.RemoveEdge(from, to, label)
	r.tr.end(s)
	r.add(update{kind: 'r', v: from, to: to, label: label})
}

func (r *recordingMutator) RemoveNode(v graph.NodeID) {
	s := r.tr.start("graph.wal_append")
	r.m.RemoveNode(v)
	r.tr.end(s)
	r.add(update{kind: 'x', v: v})
}

func (r *recordingMutator) NumNodes() int               { return r.m.NumNodes() }
func (r *recordingMutator) Alive(v graph.NodeID) bool   { return r.m.Alive(v) }
func (r *recordingMutator) Label(v graph.NodeID) string { return r.m.Label(v) }
func (r *recordingMutator) Base() *graph.Frozen         { return r.m.Base() }
