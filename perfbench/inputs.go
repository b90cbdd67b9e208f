package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
)

// Inputs are generated from the seed in a child process and written as
// files, so generation costs neither time nor peak memory of the measured
// process: it only ever sees the serialized form (gfdio text, snapshot
// images) plus the ground truth the generator knows by construction.

// Workload sizes.
const (
	satGFDs       = 300 // |Σ| of a sat rule set
	satSatisfied  = 24  // satisfiable sets per round, from fixed seeds
	satUnsat      = 8   // unsatisfiable sets per round, from --seed
	impGFDs       = 1200
	impSigmas     = 16 // distinct Σ per round
	impImplied    = 3  // implied targets per Σ, besides its non-implied one
	impChain      = 6
	graphNodes    = 20000
	graphDegree   = 16
	perturbed     = 800 // nodes given a perturbed attribute
	triPatterns   = 6   // triangle patterns of the validation set
	triPerPattern = 8   // GFDs per triangle pattern
)

// fixedSatSeed is the generator seed of the first satisfiable sat set. The
// satisfiable sets do not depend on --seed: every one of them fails its
// witness check (README.md, F1), and a failing op must fail identically in
// every run.
const fixedSatSeed = 900001

// manifest lists a workload's input files and their ground truth, in op
// order.
type manifest struct {
	// Sets are the sat rule sets; Sat is true for satisfiable ones.
	Sets []truthFile `json:"sets,omitempty"`
	// Sigmas and Targets are the imp instances: Targets[i] is checked
	// against Sigmas[Targets[i].Sigma].
	Sigmas  []string     `json:"sigmas,omitempty"`
	Targets []impTarget  `json:"targets,omitempty"`
	Graph   *graphInputs `json:"graph,omitempty"`
}

type truthFile struct {
	File string `json:"file"`
	Sat  bool   `json:"sat"`
}

type impTarget struct {
	File    string `json:"file"`
	Sigma   int    `json:"sigma"`
	Implied bool   `json:"implied"`
}

// graphInputs are the check/update inputs: Σ as text, the stored graph as a
// snapshot image and as a text dump of its live part (the oracle's copy),
// the oracle's violations the workload compares with (of the stored graph
// for check, after one update round for update), and the seed of the update
// stream.
type graphInputs struct {
	Sigma    string `json:"sigma"`
	Snapshot string `json:"snapshot"`
	Text     string `json:"text"`
	Expected string `json:"expected"`
	Seed     int64  `json:"seed"`
}

// generateInputs runs this binary in generator mode and waits for it.
func generateInputs(workload string, seed int64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.Command(self, "-gen", "-workload", workload, "-seed", fmt.Sprint(seed), "-out", out)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	return nil
}

// generate writes the inputs of workload for seed into dir.
func generate(workload string, seed int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var m manifest
	var err error
	switch workload {
	case "sat":
		m, err = genSat(seed, dir)
	case "imp":
		m, err = genImp(seed, dir)
	case "check", "update":
		m, err = genGraph(workload, seed, dir)
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), b, 0o644)
}

func writeSet(dir, name string, set *gfd.Set) error {
	var buf bytes.Buffer
	if err := gfdio.WriteGFDs(&buf, set); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644)
}

// satConfig configures one sat rule set; conflicts > 0 makes it
// unsatisfiable by construction.
func satConfig(seed int64, conflicts int) gen.Config {
	return gen.Config{N: satGFDs, K: 6, L: 3, Profile: dataset.DBpedia(), Conflicts: conflicts, Seed: seed}
}

// genSat writes satSatisfied satisfiable and satUnsat unsatisfiable rule
// sets, interleaved so every fourth op is unsatisfiable.
func genSat(seed int64, dir string) (manifest, error) {
	var m manifest
	si, ui := 0, 0
	for len(m.Sets) < satSatisfied+satUnsat {
		var cfg gen.Config
		var name string
		unsat := len(m.Sets)%4 == 3 && ui < satUnsat
		if unsat {
			cfg = satConfig(seed*1000+int64(ui), 1+ui%3)
			name = fmt.Sprintf("unsat-%02d.gfd", ui)
			ui++
		} else {
			cfg = satConfig(fixedSatSeed+int64(si), 0)
			name = fmt.Sprintf("sat-%02d.gfd", si)
			si++
		}
		if err := writeSet(dir, name, gen.New(cfg).Set()); err != nil {
			return m, err
		}
		m.Sets = append(m.Sets, truthFile{File: name, Sat: !unsat})
	}
	return m, nil
}

// genImp writes impSigmas implication instances from gen.ImpInstance (each
// with its non-implied target) plus impImplied targets per Σ from
// gen.ImpliedGFD.
func genImp(seed int64, dir string) (manifest, error) {
	var m manifest
	for i := 0; i < impSigmas; i++ {
		g := gen.New(gen.Config{N: impGFDs, K: 6, L: 3, Profile: dataset.DBpedia(), Seed: seed*1000 + int64(i)})
		sigma, phi := g.ImpInstance(impChain)
		name := fmt.Sprintf("sigma-%02d.gfd", i)
		if err := writeSet(dir, name, sigma); err != nil {
			return m, err
		}
		m.Sigmas = append(m.Sigmas, name)
		for j := 0; j <= impImplied; j++ {
			target, implied := phi, false
			if j > 0 {
				target, implied = g.ImpliedGFD(sigma), true
			}
			tname := fmt.Sprintf("target-%02d-%d.gfd", i, j)
			if err := writeSet(dir, tname, gfd.NewSet(target)); err != nil {
				return m, err
			}
			m.Targets = append(m.Targets, impTarget{File: tname, Sigma: i, Implied: implied})
		}
	}
	return m, nil
}

// graphSeed is the generator seed of the stored graph and its validation
// set. It is fixed because the match volume of the triangle patterns, and
// with it the cost of a validation, varies sixfold between generator seeds
// (README.md, "Inputs"); --seed picks the perturbed attributes and the
// update stream instead.
const graphSeed = 4

// validationGenerator returns the stored graph's generator with the
// triangle validation set drawn, so its value function is the one the graph
// is materialized under.
func validationGenerator() (*gen.Generator, *gfd.Set) {
	g := gen.New(gen.Config{N: 40, K: 6, L: 2, Profile: dataset.DBpedia(), WildcardRate: 0.2, Seed: graphSeed})
	return g, g.SharedValidationSet(triPatterns, triPerPattern)
}

// updateGenerator returns the generator of the update stream for seed: the
// stored graph's generator advanced by a seed-dependent number of pattern
// draws, so each seed continues with its own schema-consistent stream.
func updateGenerator(seed int64) *gen.Generator {
	g, _ := validationGenerator()
	for i := int64(0); i < (seed%1024+1024)%1024; i++ {
		g.Pattern()
	}
	return g
}

// storedDead is the share of tombstoned ID slots the stored graph carries:
// it has absorbed removals before, and is just below the default compaction
// threshold (graph.DefaultCompactThreshold, 25%), so that each update round
// crosses it once.
const storedDead = 0.235

// genGraph writes the triangle validation set and the stored graph: label
// dense, aged by removing storedDead of its nodes, with perturbed attributes
// picked by the seed in sorted attribute order so the graph depends on the
// seed alone. It then writes the oracle's violations for workload.
func genGraph(workload string, seed int64, dir string) (manifest, error) {
	g, set := validationGenerator()
	gr := g.DenseGraph(graphNodes, graphDegree)
	age := rand.New(rand.NewSource(graphSeed))
	for removed := 0; removed < int(storedDead*graphNodes); {
		if v := graph.NodeID(age.Intn(graphNodes)); gr.Alive(v) {
			gr.RemoveNode(v)
			removed++
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < perturbed; {
		v := graph.NodeID(rng.Intn(graphNodes))
		attrs := gr.Attrs(v)
		if !gr.Alive(v) || len(attrs) == 0 {
			continue
		}
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		gr.SetAttr(v, keys[rng.Intn(len(keys))], "perturbed")
		i++
	}
	if err := writeSet(dir, "sigma.gfd", set); err != nil {
		return manifest{}, err
	}
	var snap bytes.Buffer
	if err := gfdio.WriteSnapshot(&snap, gr.Frozen()); err != nil {
		return manifest{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "graph.snap"), snap.Bytes(), 0o644); err != nil {
		return manifest{}, err
	}
	if err := os.WriteFile(filepath.Join(dir, "graph.txt"), liveText(gr), 0o644); err != nil {
		return manifest{}, err
	}
	in := &graphInputs{Sigma: "sigma.gfd", Snapshot: "graph.snap", Text: "graph.txt", Expected: "expected.tsv", Seed: seed}
	if err := writeOracleViolations(workload, dir, in); err != nil {
		return manifest{}, err
	}
	return manifest{Graph: in}, nil
}

// liveText dumps the live part of gr in the gfdio text format (which has
// no tombstones): the oracle's copy of the stored graph.
func liveText(gr *graph.Graph) []byte {
	var b bytes.Buffer
	for v := graph.NodeID(0); int(v) < gr.NumNodes(); v++ {
		if !gr.Alive(v) {
			continue
		}
		fmt.Fprintf(&b, "node %d %s", v, gr.Label(v))
		attrs := gr.Attrs(v)
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, attrs[k])
		}
		b.WriteByte('\n')
	}
	for v := graph.NodeID(0); int(v) < gr.NumNodes(); v++ {
		for _, e := range gr.Out(v) {
			fmt.Fprintf(&b, "edge %d %d %s\n", e.From, e.To, e.Label)
		}
	}
	return b.Bytes()
}

// readManifest loads dir's manifest.
func readManifest(dir string) (manifest, error) {
	var m manifest
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(b, &m)
	return m, err
}

// readFiles returns the contents of dir's named files.
func readFiles(dir string, names []string) ([][]byte, error) {
	out := make([][]byte, len(names))
	for i, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// parseSet parses one gfdio text rule set.
func parseSet(b []byte) (*gfd.Set, error) {
	return gfdio.ReadGFDs(bytes.NewReader(b))
}

// writeOracleViolations evaluates the written Σ with the oracle over the
// written text dump (for update, after replaying one update round into it)
// and stores the violations, one "gfd n0 n1 n2" line each.
func writeOracleViolations(workload, dir string, in *graphInputs) error {
	b, err := os.ReadFile(filepath.Join(dir, in.Sigma))
	if err != nil {
		return err
	}
	set, err := parseSet(b)
	if err != nil {
		return err
	}
	og, err := readMapGraphFile(filepath.Join(dir, in.Text))
	if err != nil {
		return err
	}
	if workload == "update" {
		snap, err := os.ReadFile(filepath.Join(dir, in.Snapshot))
		if err != nil {
			return err
		}
		base, err := gfdio.ReadSnapshot(bytes.NewReader(snap))
		if err != nil {
			return err
		}
		if err := replayRound(base, updateGenerator(in.Seed), og); err != nil {
			return err
		}
	}
	want, err := og.violations(set)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	for k := range want {
		fmt.Fprintf(&buf, "%d %d %d %d\n", k.gfd, k.match[0], k.match[1], k.match[2])
	}
	return os.WriteFile(filepath.Join(dir, in.Expected), buf.Bytes(), 0o644)
}

// readViolations reads a file written by writeOracleViolations.
func readViolations(path string) (map[violKey]bool, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[violKey]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var k violKey
		if _, err := fmt.Sscan(string(line), &k.gfd, &k.match[0], &k.match[1], &k.match[2]); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[k] = true
	}
	return out, nil
}
