package main

import (
	"runtime"
	"time"
)

// This host is a few cores of a shared machine, and its speed drifts by 20-50 %
// over minutes: a run taken in a slow phase reads slow from start to end, so no
// statistic over the run's own samples removes it (README.md, Noise). What
// does is a fixed piece of work that belongs to the benchmark, not to the
// program, timed all through the run: hostBurst. A run divides its wall times
// by how much slower than nominalBurstMS its bursts ran, which expresses them
// as time on this host at its nominal speed.
//
// The burst's mix was fitted on recorded series of ProfileApp calls with
// candidate kernels timed in between: pointer chases, a copy and an ALU loop
// followed the simulator's slowdown poorly, an allocating loop followed it
// best but swung more than the simulator does, and two parts of that to one
// of ALU loop brought a 20 % spread of sweep times down to 4-6 %.

const (
	burstRounds = 2
	burstAllocs = 100_000
	burstShifts = 3_750_000
	// nominalBurstMS is what a burst takes on the sizing host in a quiet phase.
	nominalBurstMS = 60.0
	// calibrationShare is how long a run's bursts take, as a share of its
	// ops' wall time.
	calibrationShare = 0.12
)

type burstNode struct {
	next    *burstNode
	payload [7]uint64
}

// burstSink keeps the burst's results live.
var burstSink uint64

// hostBurst runs the calibration work once and returns how long it took:
// burstRounds times, a map- and pointer-heavy loop that allocates 64-byte
// nodes, as the simulator's per-instruction bookkeeping does, and a
// register-only xorshift loop.
func hostBurst() time.Duration {
	start := time.Now()
	for r := 0; r < burstRounds; r++ {
		index := map[int]*burstNode{}
		var head *burstNode
		x := uint64(1)
		for i := 0; i < burstAllocs; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			k := int(x>>33) % 50_000
			n := &burstNode{next: head}
			head = n
			if old, ok := index[k]; ok {
				n.payload[0] = old.payload[0] + 1
			}
			index[k] = n
			if i%4096 == 0 {
				head = nil
			}
		}
		y := uint64(88172645463325252)
		for i := 0; i < burstShifts; i++ {
			y ^= y << 13
			y ^= y >> 7
			y ^= y << 17
		}
		burstSink += uint64(len(index)) + y
	}
	return time.Since(start)
}

// hostProbe collects the bursts of one phase of a run. A nil probe takes
// none, which is how the traced run executes the same sweeps.
type hostProbe struct {
	burstsMS []float64
	// work is the wall time of the ops followed so far, spent the time of the
	// bursts that followed them.
	work, spent time.Duration
}

// burst times one burst.
func (p *hostProbe) burst() {
	b := hostBurst()
	p.burstsMS = append(p.burstsMS, ms(b))
	p.spent += b
}

// follow is called after every op with its wall time. It times bursts until
// they have taken calibrationShare of the ops' time so far: every second of
// the run's work is sampled alike, and a single burst, which swings by 10 %
// from one to the next, weighs little.
func (p *hostProbe) follow(op time.Duration) {
	if p == nil {
		return
	}
	p.work += op
	// What a burst's allocations cost depends on the heap it finds: start
	// from a collected one, whatever the op left.
	runtime.GC()
	for float64(p.spent) < calibrationShare*float64(p.work) {
		p.burst()
	}
}

// slowdown is how many times slower than nominal the host ran while the
// probe's bursts were taken.
func slowdown(burstsMS []float64) float64 {
	return median(burstsMS) / nominalBurstMS
}
