package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// recorder accumulates the measured phase: per-op latency, and the CPU time,
// heap allocation and GC activity that fall inside op calls. Output checks
// run between ops and are excluded from all of them.
type recorder struct {
	block int       // ops per block of the end-to-end statistics
	lat   []float64 // ms, one per attempted op
	cpu   []float64 // ms, one per attempted op
	alloc []float64 // bytes, one per attempted op
	left  []float64 // share of CPU time the host left, one per block

	mallocs  uint64
	gcCycles uint64
	gcPause  time.Duration

	attempted, failed, unexpected int
	firstErr                      error
}

// op times one op: f runs the op and returns its check.
func (r *recorder) op(f func() func() error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	check := f()
	el := time.Since(t0)
	c1 := cpuTime()
	runtime.ReadMemStats(&m1)

	r.lat = append(r.lat, float64(el.Nanoseconds())/1e6)
	r.cpu = append(r.cpu, float64((c1-c0).Nanoseconds())/1e6)
	r.alloc = append(r.alloc, float64(m1.TotalAlloc-m0.TotalAlloc))
	r.mallocs += m1.Mallocs - m0.Mallocs
	r.gcCycles += uint64(m1.NumGC - m0.NumGC)
	r.gcPause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	r.attempted++

	if err := check(); err != nil {
		r.failed++
		var kf knownFault
		if !errors.As(err, &kf) {
			r.unexpected++
			if r.firstErr == nil {
				r.firstErr = err
			}
		}
	}
}

// positionMedians returns, for each of the n positions of a block, the
// median over the run's blocks of the value at that position. Every block
// runs the same ops from a freshly collected heap, so a position stands for
// one op of the workload; its median drops the blocks in which contention
// from outside the process (other tenants of a shared host, hypervisor
// steal) happened to hit it, where a statistic over all ops would not.
func positionMedians(xs []float64, n int) []float64 {
	nb := len(xs) / n
	per := make([]float64, n)
	col := make([]float64, nb)
	for k := range per {
		for b := range col {
			col[b] = xs[b*n+k]
		}
		per[k] = median(col)
	}
	return per
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// latencies returns the latency of each position of a block
// (positionMedians), each op's wall time scaled by the share of CPU time the
// host left over its block.
func (r *recorder) latencies() []float64 {
	scaled := make([]float64, len(r.lat))
	for i, v := range r.lat {
		scaled[i] = v * r.left[i/r.block]
	}
	return positionMedians(scaled, r.block)
}

// endToEnd returns the end-to-end metrics of the measured phase. Every
// per-op figure is taken over the positions of a block, each at its median
// over the run's blocks (positionMedians): the percentiles of latency, and
// the means of latency (as a rate), CPU time and allocation.
func (r *recorder) endToEnd(setupS float64) map[string]metric {
	lat := r.latencies()
	raw := positionMedians(r.lat, r.block)
	fmt.Fprintf(os.Stderr, "perfbench: the host left %.3f of the CPU time (median over blocks); unscaled op_p50_ms %.4g, op_p90_ms %.4g\n",
		median(r.left), median(raw), quantile(raw, 0.9))
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"op_p50_ms":       {median(lat), "ms"},
		"op_p90_ms":       {quantile(lat, 0.9), "ms"},
		"ops_per_s":       {1000 / mean(lat), "1/s"},
		"cpu_ms_per_op":   {mean(positionMedians(r.cpu, r.block)), "ms"},
		"alloc_mb_per_op": {mean(positionMedians(r.alloc, r.block)) / (1 << 20), "MB"},
		"max_rss_mb":      {maxRSSMB(), "MB"},
	}
}

// cpuTime returns the user+system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024
}
