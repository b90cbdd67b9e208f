package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
)

// graphState is the serialized and loaded state shared by check and update:
// the triangle validation set and the stored graph image.
type graphState struct {
	in        graphInputs
	sigmaText []byte
	snap      []byte

	set  *gfd.Set
	base *graph.Frozen
	viol []core.Violation
}

func loadGraphState(dir string) (*graphState, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if m.Graph == nil {
		return nil, fmt.Errorf("inputs in %s describe no graph", dir)
	}
	files, err := readFiles(dir, []string{m.Graph.Sigma, m.Graph.Snapshot})
	if err != nil {
		return nil, err
	}
	return &graphState{in: *m.Graph, sigmaText: files[0], snap: files[1]}, nil
}

// setup parses Σ, loads the graph image and runs the initial full
// validation.
func (g *graphState) setup(tr *tracer) error {
	s := tr.start("gfdio.read_gfds")
	set, err := parseSet(g.sigmaText)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: %w", g.in.Sigma, err)
	}
	s = tr.start("gfdio.read_graph")
	base, err := gfdio.ReadSnapshot(bytes.NewReader(g.snap))
	tr.end(s)
	if err != nil {
		return fmt.Errorf("%s: %w", g.in.Snapshot, err)
	}
	s = tr.start("core.violations_initial")
	viol, _, err := core.ViolationsOpts(context.Background(), base, set, core.VerifyOptions{})
	tr.end(s)
	if err != nil {
		return fmt.Errorf("initial validation: %w", err)
	}
	g.set, g.base, g.viol = set, base, viol
	return nil
}

// compareViolations checks got against the oracle's set want, as sets of
// (rule, match).
func compareViolations(set *gfd.Set, got []core.Violation, want map[violKey]bool) error {
	index := make(map[*gfd.GFD]int, set.Len())
	for i, phi := range set.GFDs {
		index[phi] = i
	}
	seen := make(map[violKey]bool, len(got))
	for _, v := range got {
		gi, ok := index[v.GFD]
		if !ok || len(v.Match) > 3 {
			return fmt.Errorf("violation of an unknown GFD or with %d variables", len(v.Match))
		}
		k := violKey{gfd: gi}
		copy(k.match[:], v.Match)
		if seen[k] {
			return fmt.Errorf("violation %v reported twice", k)
		}
		seen[k] = true
		if !want[k] {
			return fmt.Errorf("violation %v of %s not found by the oracle (%d reported, oracle %d)", k, v.GFD.Name, len(got), len(want))
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%d violations reported, oracle finds %d", len(seen), len(want))
	}
	return nil
}

// checkWorkload: each op loads the stored graph image with
// graph.ReadSnapshot and validates it with core.ViolationsOpts.
type checkWorkload struct {
	*graphState
	want map[violKey]bool
}

func newCheckWorkload(dir string) (workload, error) {
	g, err := loadGraphState(dir)
	if err != nil {
		return nil, err
	}
	want, err := readViolations(filepath.Join(dir, g.in.Expected))
	if err != nil {
		return nil, err
	}
	return &checkWorkload{graphState: g, want: want}, nil
}

// checkRound is the number of ops per check round; every op does the same
// work, so a round is short.
const checkRound = 2

func (w *checkWorkload) roundLen() int { return checkRound }

func (w *checkWorkload) op(_ int, tr *tracer) func() error {
	s := tr.start("graph.snapshot_load")
	f, err := graph.ReadSnapshot(bytes.NewReader(w.snap))
	tr.end(s)
	if err != nil {
		return func() error { return fmt.Errorf("loading the graph image: %w", err) }
	}
	s = tr.start("core.violations")
	viol, st, err := core.ViolationsOpts(context.Background(), f, w.set, core.VerifyOptions{})
	tr.end(s)
	if tr != nil {
		tr.count("core.groups", float64(st.Groups))
		tr.count("core.matches_reused", float64(st.MatchesReused))
		tr.count("core.prefix_families", float64(st.PrefixFamilies))
	}
	return func() error {
		if err != nil {
			return fmt.Errorf("validation: %w", err)
		}
		return compareViolations(w.set, viol, w.want)
	}
}

func (w *checkWorkload) reference(_ int, tr *tracer) {
	enumerate(tr, w.set, w.base)
}
