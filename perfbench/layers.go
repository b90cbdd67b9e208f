package main

// layerSpec is one per-layer metric of the traced run.
type layerSpec struct {
	name, unit string
	value      func(tr *tracer, rec *recorder) float64
}

// spanMedian is the median over ops of the summed time of one span name.
func spanMedian(span string) func(*tracer, *recorder) float64 {
	return func(tr *tracer, _ *recorder) float64 { return median(values(tr.spanMS(span))) }
}

// countPerOp is a counter's mean per measured op.
func countPerOp(name string) func(*tracer, *recorder) float64 {
	return func(tr *tracer, rec *recorder) float64 {
		return sum(values(tr.counts[name])) / float64(rec.attempted)
	}
}

// countMedian is the median over the ops that recorded a counter.
func countMedian(name string) func(*tracer, *recorder) float64 {
	return func(tr *tracer, _ *recorder) float64 { return median(values(tr.counts[name])) }
}

// layers lists every per-layer metric. A layer a workload does not call
// reads 0 there (README.md maps each metric to its workloads).
var layers = []layerSpec{
	{"gfdio.read_gfds_ms", "ms", spanMedian("gfdio.read_gfds")},
	{"gfdio.read_graph_ms", "ms", spanMedian("gfdio.read_graph")},
	{"canon.build_sigma_ms", "ms", spanMedian("canon.build_sigma")},
	{"canon.build_phi_ms", "ms", spanMedian("canon.build_phi")},
	{"match.enum_ms", "ms", spanMedian("match.enum")},
	{"match.matches", "count", countPerOp("match.matches")},
	{"core.enforcements", "count", countPerOp("core.enforcements")},
	{"core.rechecks", "count", countPerOp("core.rechecks")},
	{"core.pending", "count", countPerOp("core.pending")},
	{"core.units_run", "count", countPerOp("core.units_run")},
	{"core.units_split", "count", countPerOp("core.units_split")},
	{"core.units_stolen", "count", countPerOp("core.units_stolen")},
	{"core.violations_ms", "ms", spanMedian("core.violations")},
	{"core.groups", "count", countPerOp("core.groups")},
	{"core.matches_reused", "count", countPerOp("core.matches_reused")},
	{"core.prefix_families", "count", countPerOp("core.prefix_families")},
	{"core.revalidate_ms", "ms", spanMedian("core.revalidate")},
	{"core.reenumerated", "count", countPerOp("core.reenumerated")},
	{"core.kept", "count", countPerOp("core.kept")},
	{"cluster.broadcasts", "count", countPerOp("cluster.broadcasts")},
	{"cluster.delta_ops", "count", countPerOp("cluster.delta_ops")},
	{"eq.replay_ops", "count", countPerOp("eq.replay_ops")},
	{"graph.snapshot_load_ms", "ms", spanMedian("graph.snapshot_load")},
	{"graph.wal_append_ms", "ms", spanMedian("graph.wal_append")},
	{"graph.overlay_ms", "ms", spanMedian("graph.overlay")},
	{"graph.refreeze_ms", "ms", spanMedian("graph.refreeze")},
	{"graph.wal_bytes_per_update", "B", func(tr *tracer, _ *recorder) float64 {
		n := sum(values(tr.counts["graph.updates"]))
		if n == 0 {
			return 0
		}
		return sum(values(tr.counts["graph.wal_bytes"])) / n
	}},
	{"graph.touched_nodes", "count", countPerOp("graph.touched_nodes")},
	{"graph.compactions", "count", func(tr *tracer, _ *recorder) float64 {
		return float64(len(tr.spanMS("graph.compact")))
	}},
	{"graph.compact_ms", "ms", spanMedian("graph.compact")},
	{"core.seqsat_ms", "ms", spanMedian("core.seqsat")},
	{"core.seqsat_cpu_ms", "ms", countMedian("core.seqsat_cpu_ms")},
	{"core.parsat_p1_ms", "ms", spanMedian("core.parsat_p1")},
	{"core.seqimp_ms", "ms", spanMedian("core.seqimp")},
	{"rdfchase.implies_ms", "ms", spanMedian("rdfchase.implies")},
	{"runtime.gc_cycles_per_op", "count", func(_ *tracer, rec *recorder) float64 {
		return float64(rec.gcCycles) / float64(rec.attempted)
	}},
	{"runtime.gc_pause_ms_per_op", "ms", func(_ *tracer, rec *recorder) float64 {
		return float64(rec.gcPause.Nanoseconds()) / 1e6 / float64(rec.attempted)
	}},
	{"runtime.mallocs_per_op", "count", func(_ *tracer, rec *recorder) float64 {
		return float64(rec.mallocs) / float64(rec.attempted)
	}},
	{"trace.op_p50_ms", "ms", func(_ *tracer, rec *recorder) float64 { return median(rec.latencies()) }},
}

func layerMetrics(tr *tracer, rec *recorder) map[string]metric {
	out := make(map[string]metric, len(layers))
	for _, l := range layers {
		out[l.name] = metric{l.value(tr, rec), l.unit}
	}
	return out
}

func values(m map[int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
