// Command perfbench is the repository's end-to-end benchmark. It drives the
// reasoning engines and the storage layer through their public Go API as one
// closed-loop client (each op is sent after the previous one returns),
// checks every output against an oracle that does not share the engine's
// code, and prints one JSON result line.
//
//	perfbench --workload sat|imp|check|update --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1 a
// traced run records spans around each call into a layer and the result
// carries the per-layer metrics derived from them. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workload is one benchmark scenario. Its constructor loads the serialized
// inputs the generator process wrote; setup goes from them to the first op
// being ready.
type workload interface {
	// setup parses the serialized inputs and prepares the ready state,
	// replacing any state a previous setup left.
	setup(tr *tracer) error
	// roundLen is the number of ops in one round. Runs attempt whole rounds.
	roundLen() int
	// op runs op i of a round and returns the output check, which the
	// runner calls outside the timed region. A check returns nil, a
	// knownFault, or any other error for an unexpected wrong output.
	op(i int, tr *tracer) func() error
	// reference runs the traced run's layer floors and baselines on the
	// inputs of op i; its spans are not part of any op.
	reference(i int, tr *tracer)
}

// knownFault marks a wrong output caused by a documented program fault
// (README.md, "Known faults"): the op is counted as failed, but the run
// stays correct because the benchmark predicted it.
type knownFault struct{ msg string }

func (k knownFault) Error() string { return k.msg }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Set-up timing: a run sets up at least minSetups times and until
// setupShare of --seconds has passed; setup_s is the median.
const (
	minSetups  = 5
	setupShare = 5 // the set-up phase lasts 1/setupShare of the run
)

func main() {
	name := flag.String("workload", "", "workload: sat, imp, check or update")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the generated inputs and the traced run's spans")
	genOnly := flag.Bool("gen", false, "only write the inputs (the child process a run starts)")
	faults := flag.Bool("faults", false, "report the witness checks of the satisfiable sat sets and exit")
	flag.Parse()
	if *faults {
		reportFaults()
		return
	}
	dir := filepath.Join(*out, "inputs", fmt.Sprintf("%s-%d", *name, *seed))
	if *genOnly {
		if err := generate(*name, *seed, dir); err != nil {
			fail(err.Error())
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fail("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fail("--seconds must be at least 1")
	}
	if err := generateInputs(*name, *seed, *out); err != nil {
		fail(err.Error())
	}
	w, err := newWorkload(*name, dir)
	if err != nil {
		fail(err.Error())
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	res, err := run(w, tr, time.Duration(*seconds)*time.Second)
	if err != nil {
		fail(err.Error())
	}
	if tr != nil {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-%d.tsv", *name, *seed))
		if err := tr.writeFile(path); err != nil {
			fail(err.Error())
		}
		printSelfTimes(tr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err.Error())
	}
	fmt.Println(string(line))
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(2)
}

// newWorkload loads the named workload's inputs from dir.
func newWorkload(name, dir string) (workload, error) {
	switch name {
	case "sat":
		return newSatWorkload(dir)
	case "imp":
		return newImpWorkload(dir)
	case "check":
		return newCheckWorkload(dir)
	case "update":
		return newUpdateWorkload(dir)
	}
	return nil, fmt.Errorf("unknown workload %q (want sat, imp, check or update)", name)
}

// workers is p for the parallel engines: one per CPU the process may use.
func workers() int { return runtime.NumCPU() }

// run times set-ups for the first 1/setupShare of d, runs one warm-up
// round, and then whole measured blocks of rounds until the rest of d has
// passed. A traced run spends the first half of that rest on traced ops and
// the second half on reference calls. Wall times are scaled by the share
// of CPU time the host left over their phase (set-ups) or block (ops).
func run(w workload, tr *tracer, d time.Duration) (*result, error) {
	var setups []float64
	setupStart, setupSteal := time.Now(), startSteal()
	for i := 0; i < minSetups || time.Since(setupStart) < d/setupShare; i++ {
		runtime.GC()
		tr.beginOp(setupOpBase + i)
		t0 := time.Now()
		if err := w.setup(tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupS := median(setups) * setupSteal.left()
	d -= time.Since(setupStart)
	n := w.roundLen()
	// The warm-up round's checks run (they keep workload state in step) but
	// its outcomes are not counted.
	warm := &recorder{}
	for i := 0; i < n; i++ {
		warm.op(func() func() error { return w.op(i, nil) })
	}

	opPhase := d
	if tr != nil {
		opPhase = d / 2
	}
	rec := &recorder{block: blockLen(n)}
	start := time.Now()
	for id := 0; id == 0 || time.Since(start) < opPhase; {
		// Each block starts from a collected heap, so the collections its
		// ops trigger fall at the same ops in every block.
		runtime.GC()
		steal := startSteal()
		for k := 0; k < rec.block; k++ {
			i := k % n
			if tr != nil {
				tr.beginOp(id)
			}
			rec.op(func() func() error {
				s := tr.start("op")
				defer tr.end(s)
				return w.op(i, tr)
			})
			id++
		}
		rec.left = append(rec.left, steal.left())
	}
	if rec.unexpected > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d wrong outputs; first: %v\n", rec.unexpected, rec.firstErr)
	}
	res := &result{Correct: rec.unexpected == 0, Attempted: rec.attempted, Failed: rec.failed}
	if tr == nil {
		res.Metrics = rec.endToEnd(setupS)
		return res, nil
	}
	refStart := time.Now()
	for ref := 0; ref == 0 || time.Since(refStart) < d-opPhase; ref++ {
		tr.beginOp(refOpBase + ref)
		w.reference(ref%n, tr)
	}
	res.Metrics = layerMetrics(tr, rec)
	return res, nil
}

// minBlock is the least number of ops in a block, the unit the end-to-end
// statistics are taken over (positionMedians).
const minBlock = 16

// blockLen is the number of ops per block: whole rounds of n ops, at least
// minBlock.
func blockLen(n int) int { return n * ((minBlock + n - 1) / n) }

// Op ids of set-ups and reference calls, apart from measured ops.
const (
	setupOpBase = 1 << 29
	refOpBase   = 1 << 30
)

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
