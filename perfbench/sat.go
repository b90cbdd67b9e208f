package main

import (
	"fmt"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
)

// satWorkload: each op is core.ParSat on the next rule set of the round.
type satWorkload struct {
	names []string
	text  [][]byte
	truth []bool
	sets  []*gfd.Set
}

func newSatWorkload(dir string) (workload, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	w := &satWorkload{}
	for _, s := range m.Sets {
		w.names = append(w.names, s.File)
		w.truth = append(w.truth, s.Sat)
	}
	if len(w.names) == 0 {
		return nil, fmt.Errorf("sat inputs in %s list no rule sets", dir)
	}
	w.text, err = readFiles(dir, w.names)
	return w, err
}

func (w *satWorkload) setup(tr *tracer) error {
	s := tr.start("gfdio.read_gfds")
	defer tr.end(s)
	w.sets = make([]*gfd.Set, len(w.text))
	for i, b := range w.text {
		set, err := parseSet(b)
		if err != nil {
			return fmt.Errorf("%s: %w", w.names[i], err)
		}
		w.sets[i] = set
	}
	return nil
}

func (w *satWorkload) roundLen() int { return len(w.sets) }

func (w *satWorkload) op(i int, tr *tracer) func() error {
	set := w.sets[i]
	s := tr.start("core.parsat")
	res := core.ParSat(set, core.DefaultParOptions(workers()))
	tr.end(s)
	countReasoning(tr, res.Stats)
	return func() error { return checkSat(w.names[i], set, w.truth[i], res) }
}

// checkSat compares a verdict with the generator's ground truth, checks a
// witness with core.IsModel and a conflict for two distinct constants. A
// witness that fails only as F1/F2 do is a knownFault.
func checkSat(name string, set *gfd.Set, satisfiable bool, res *core.SatResult) error {
	switch {
	case res.Err != nil:
		return fmt.Errorf("%s: %w", name, res.Err)
	case res.Satisfiable != satisfiable:
		return fmt.Errorf("%s: satisfiable=%v, constructed %v", name, res.Satisfiable, satisfiable)
	case satisfiable:
		if err := witnessFault(set, res); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	case res.Conflict == nil || res.Conflict.C1 == res.Conflict.C2:
		return fmt.Errorf("%s: unsatisfiable without two distinct conflicting constants: %v", name, res.Conflict)
	}
	return nil
}

// countReasoning records a ParSat/ParImp run's counters.
func countReasoning(tr *tracer, st core.Stats) {
	if tr == nil {
		return
	}
	tr.count("match.matches", float64(st.Matches))
	tr.count("core.enforcements", float64(st.Enforcements))
	tr.count("core.rechecks", float64(st.Rechecks))
	tr.count("core.pending", float64(st.Pending))
	tr.count("core.units_run", float64(st.UnitsRun))
	tr.count("core.units_split", float64(st.UnitsSplit))
	tr.count("core.units_stolen", float64(st.UnitsStolen))
	tr.count("cluster.broadcasts", float64(st.Broadcasts))
	tr.count("cluster.delta_ops", float64(st.DeltaOps))
	// Every worker but the sender replays each shipped op on its replica.
	tr.count("eq.replay_ops", float64(st.DeltaOps*(workers()-1)))
}

func (w *satWorkload) reference(i int, tr *tracer) {
	set := w.sets[i]
	s := tr.start("canon.build_sigma")
	cs := canon.BuildSigma(set)
	tr.end(s)
	enumerate(tr, set, cs.Graph)

	c0 := cpuTime()
	s = tr.start("core.seqsat")
	core.SeqSat(set)
	tr.end(s)
	tr.count("core.seqsat_cpu_ms", float64((cpuTime()-c0).Nanoseconds())/1e6)

	s = tr.start("core.parsat_p1")
	core.ParSat(set, core.DefaultParOptions(1))
	tr.end(s)
}

// enumerate times the enumeration floor: a standalone count of the
// matches of every pattern of set over g.
func enumerate(tr *tracer, set *gfd.Set, g graph.Reader) {
	s := tr.start("match.enum")
	for _, phi := range set.GFDs {
		match.NewSearch(phi.Pattern, g, match.Options{}).CountAll()
	}
	tr.end(s)
}
