package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile is the linearly interpolated p-quantile (0..1) of v; 0 for an
// empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) (the default "exclusive" method) gives them,
// which is how the driver measures a metric's run-to-run spread. It needs at
// least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hostInfo describes the machine a result was taken on, so that a slow host
// phase can be told from a code change.
type hostInfo struct {
	NCPU      int     `json:"ncpu"`
	GoVersion string  `json:"go_version"`
	ChaseNS   float64 `json:"chase_ns"`
}

// goVersionNumber turns "go1.24.3" into 1.24, for the numeric metric.
func goVersionNumber(v string) float64 {
	v = strings.TrimPrefix(v, "go")
	parts := strings.SplitN(v, ".", 3)
	if len(parts) < 2 {
		return 0
	}
	f, err := strconv.ParseFloat(parts[0]+"."+parts[1], 64)
	if err != nil {
		return 0
	}
	return f
}

const (
	chaseBytes = 64 << 20
	chaseSteps = 1 << 20
)

// chaseNS times a dependent-load chain over 64 MB: the host's memory latency
// as this process sees it at this moment. The simulator's hot loops are
// pointer-heavy, so a noisy neighbour shows here first. Slot i points to slot
// a*i+c mod n, the step of a full-period congruential generator, which visits
// every slot in one cycle and in no order a prefetcher follows.
func chaseNS() float64 {
	const n = chaseBytes / 8 // a power of two
	next := make([]uint64, n)
	for i := range next {
		next[i] = (uint64(i)*6364136223846793005 + 1442695040888963407) % n
	}
	p := uint64(0)
	start := time.Now()
	for i := 0; i < chaseSteps; i++ {
		p = next[p]
	}
	d := time.Since(start)
	chaseSink = p
	return float64(d.Nanoseconds()) / chaseSteps
}

// chaseSink keeps the chase loop's result live.
var chaseSink uint64

func probeHost() hostInfo {
	return hostInfo{
		NCPU:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
		ChaseNS:   chaseNS(),
	}
}

// peakRSSMB reads the process's resident-set high-water mark from
// /proc/self/status; 0 where that is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
