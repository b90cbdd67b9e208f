package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/pattern"
)

// faultReps is the number of ParSat runs per set and p in a fault report.
const faultReps = 5

// reportFaults prints, for every satisfiable sat set, how many of faultReps
// ParSat runs (at p = workers() and p = 1) and whether SeqSat return a
// witness that fails core.IsModel, with the diagnosis of the last failure.
// It reproduces the known faults of README.md.
func reportFaults() {
	for i := 0; i < satSatisfied; i++ {
		set := gen.New(satConfig(fixedSatSeed+int64(i), 0)).Set()
		line := fmt.Sprintf("sat-%02d:", i)
		for _, p := range []int{workers(), 1} {
			bad, why := 0, ""
			for r := 0; r < faultReps; r++ {
				if err := witnessFault(set, core.ParSat(set, core.DefaultParOptions(p))); err != nil {
					bad, why = bad+1, " ("+err.Error()+")"
				}
			}
			line += fmt.Sprintf(" parsat p=%d fails %d/%d%s;", p, bad, faultReps, why)
		}
		if err := witnessFault(set, core.SeqSat(set)); err != nil {
			line += " seqsat fails (" + err.Error() + ")"
		} else {
			line += " seqsat ok"
		}
		fmt.Println(line)
	}
}

// witnessFault returns nil when res is a satisfiable verdict whose witness
// is a model of set, and otherwise an error saying why not. The error is a
// knownFault only for the signature of F1 and F2 (README.md): a violated
// rule's consequent attribute is absent from the witness.
func witnessFault(set *gfd.Set, res *core.SatResult) error {
	switch {
	case res.Err != nil:
		return res.Err
	case !res.Satisfiable || res.Model == nil:
		return fmt.Errorf("no satisfiable verdict with a witness")
	case core.IsModel(res.Model, set):
		return nil
	}
	ok, v := core.Satisfies(res.Model, set)
	if ok {
		return fmt.Errorf("witness is not a model: some pattern has no match")
	}
	absent := func(x pattern.Var, a string) error {
		if _, has := res.Model.Attr(v.Match[x], a); has {
			return nil
		}
		return knownFault{fmt.Sprintf("witness is not a model: %s at %v: consequent attribute %s absent at node %d", v.GFD.Name, v.Match, a, v.Match[x])}
	}
	for _, l := range v.GFD.Y {
		if err := absent(l.X, l.A); err != nil {
			return err
		}
		if l.Kind == gfd.VarLiteral {
			if err := absent(l.Y, l.B); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("witness is not a model: %s at %v: consequent false", v.GFD.Name, v.Match)
}
