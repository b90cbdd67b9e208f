package main

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"time"
)

// A stealMeter measures the share of the machine's CPU time that the host
// took away over an interval: hypervisor steal, the time a virtual CPU was
// ready to run but the host ran someone else. On a shared host it moves the
// wall time of every op with the load of other tenants, so wall times are
// scaled by the share the host left (see README.md, "Host steal").
type stealMeter struct {
	t     time.Time
	steal time.Duration
	cpus  int
}

func startSteal() stealMeter {
	steal, cpus := readSteal()
	return stealMeter{t: time.Now(), steal: steal, cpus: cpus}
}

// left returns the share of CPU time the host left to the machine since m
// started: 1 − steal / (CPUs × elapsed). It is 1 where /proc/stat cannot be
// read or reports no steal.
func (m stealMeter) left() float64 {
	steal, cpus := readSteal()
	el := time.Since(m.t)
	if cpus == 0 || cpus != m.cpus || el <= 0 {
		return 1
	}
	return 1 - float64(steal-m.steal)/(float64(cpus)*float64(el))
}

// readSteal returns the steal time summed over the machine's CPUs and their
// number, from /proc/stat (in USER_HZ, 1/100 s); 0, 0 if it cannot be read.
func readSteal() (time.Duration, int) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	var steal time.Duration
	cpus := 0
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := bytes.Fields(sc.Bytes())
		if len(f) == 0 || !bytes.HasPrefix(f[0], []byte("cpu")) {
			continue
		}
		if len(f) < 9 {
			return 0, 0
		}
		if string(f[0]) == "cpu" {
			ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
			if err != nil {
				return 0, 0
			}
			steal = time.Duration(ticks) * 10 * time.Millisecond
			continue
		}
		cpus++
	}
	return steal, cpus
}
