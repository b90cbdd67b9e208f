package main

import (
	"fmt"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/gfd"
	"repro/internal/rdfchase"
)

// impWorkload: each op is core.ParImp on the next implication instance of
// the round.
type impWorkload struct {
	sigmaNames, targetNames []string
	sigmaText, targetText   [][]byte
	targets                 []impTarget
	sigmas                  []*gfd.Set
	phis                    []*gfd.GFD
}

func newImpWorkload(dir string) (workload, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if len(m.Targets) == 0 {
		return nil, fmt.Errorf("imp inputs in %s list no instances", dir)
	}
	w := &impWorkload{sigmaNames: m.Sigmas, targets: m.Targets}
	for _, t := range m.Targets {
		w.targetNames = append(w.targetNames, t.File)
	}
	if w.sigmaText, err = readFiles(dir, w.sigmaNames); err != nil {
		return nil, err
	}
	w.targetText, err = readFiles(dir, w.targetNames)
	return w, err
}

func (w *impWorkload) setup(tr *tracer) error {
	s := tr.start("gfdio.read_gfds")
	defer tr.end(s)
	w.sigmas = make([]*gfd.Set, len(w.sigmaText))
	for i, b := range w.sigmaText {
		set, err := parseSet(b)
		if err != nil {
			return fmt.Errorf("%s: %w", w.sigmaNames[i], err)
		}
		w.sigmas[i] = set
	}
	w.phis = make([]*gfd.GFD, len(w.targetText))
	for i, b := range w.targetText {
		set, err := parseSet(b)
		if err != nil {
			return fmt.Errorf("%s: %w", w.targetNames[i], err)
		}
		if set.Len() != 1 {
			return fmt.Errorf("%s: %d GFDs, want 1", w.targetNames[i], set.Len())
		}
		w.phis[i] = set.GFDs[0]
	}
	return nil
}

func (w *impWorkload) roundLen() int { return len(w.phis) }

func (w *impWorkload) op(i int, tr *tracer) func() error {
	t := w.targets[i]
	s := tr.start("core.parimp")
	res := core.ParImp(w.sigmas[t.Sigma], w.phis[i], core.DefaultParOptions(workers()))
	tr.end(s)
	countReasoning(tr, res.Stats)
	return func() error {
		switch {
		case res.Err != nil:
			return fmt.Errorf("%s: %w", t.File, res.Err)
		case res.Implied != t.Implied:
			return fmt.Errorf("%s: implied=%v (%v), constructed %v", t.File, res.Implied, res.Reason, t.Implied)
		}
		return nil
	}
}

func (w *impWorkload) reference(i int, tr *tracer) {
	sigma, phi := w.sigmas[w.targets[i].Sigma], w.phis[i]
	s := tr.start("canon.build_phi")
	cp := canon.BuildPhi(phi)
	tr.end(s)
	enumerate(tr, sigma, cp.Graph)

	s = tr.start("core.seqimp")
	core.SeqImp(sigma, phi)
	tr.end(s)

	s = tr.start("rdfchase.implies")
	rdfchase.Implies(sigma, phi)
	tr.end(s)
}
