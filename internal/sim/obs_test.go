package sim

import (
	"testing"

	"gputopdown/internal/kernel"
	"gputopdown/internal/obs"
)

// saxpyLaunch allocates fresh buffers and builds a standard test launch.
func saxpyLaunch(d *Device, n int) *kernel.Launch {
	xs := d.Alloc(n * 4)
	ys := d.Alloc(n * 4)
	d.Storage.WriteF32Slice(xs, make([]float32, n))
	d.Storage.WriteF32Slice(ys, make([]float32, n))
	return &kernel.Launch{
		Program: buildSaxpy(),
		Grid:    kernel.Dim3{X: (n + 127) / 128},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{xs, ys, uint64(n), uint64(float32bits(2))},
	}
}

// TestDisableTraceStopsSamples: re-launching after EnableTrace(0) must record
// no Trace samples.
func TestDisableTraceStopsSamples(t *testing.T) {
	d := NewDevice(testSpec())
	l := saxpyLaunch(d, 4096)

	d.EnableTrace(64)
	res := d.MustLaunch(l)
	if len(res.Trace) == 0 {
		t.Fatal("EnableTrace(64) recorded no samples")
	}

	d.EnableTrace(0)
	res = d.MustLaunch(l)
	if len(res.Trace) != 0 {
		t.Fatalf("launch after EnableTrace(0) recorded %d Trace samples, want 0", len(res.Trace))
	}
}

// TestObserverLaunchSpansAndMetrics: an attached observer must yield a
// wall-clock launch span, a simulated-time kernel span, per-SM residency
// counter samples (when tracing is enabled), and consistent self-metrics.
func TestObserverLaunchSpansAndMetrics(t *testing.T) {
	d := NewDevice(testSpec())
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	d.SetHooks(obs.NewHooks(tr, reg, nil))
	d.EnableTrace(64) // residency samples ride the simulated-time track

	l := saxpyLaunch(d, 4096)
	res := d.MustLaunch(l)

	var wallSpan, simSpan, residency bool
	for _, e := range tr.Events() {
		switch {
		case e.Ph == "X" && e.PID == obs.PIDProfiler && e.Name == "launch saxpy":
			wallSpan = true
		case e.Ph == "X" && e.PID == obs.PIDSim && e.Name == "saxpy":
			simSpan = true
			wantDur := obs.CyclesToUS(res.Cycles, d.Spec.ClockMHz)
			if e.Dur != wantDur {
				t.Errorf("sim span dur = %v us, want %v", e.Dur, wantDur)
			}
		case e.Ph == "C" && e.PID == obs.PIDSim:
			residency = true
		}
	}
	if !wallSpan {
		t.Error("no wall-clock launch span recorded")
	}
	if !simSpan {
		t.Error("no simulated-time kernel span recorded")
	}
	if !residency {
		t.Error("no per-SM block-residency counter samples recorded")
	}

	if got := reg.Counter("sim_launches_total", "", nil).Value(); got != 1 {
		t.Errorf("sim_launches_total = %v, want 1", got)
	}
	if got := reg.Counter("sim_blocks_dispatched_total", "", nil).Value(); got != float64(res.Blocks) {
		t.Errorf("sim_blocks_dispatched_total = %v, want %d", got, res.Blocks)
	}
	if got := reg.Counter("sim_cycles_total", "", nil).Value(); got != float64(res.Cycles) {
		t.Errorf("sim_cycles_total = %v, want %d", got, res.Cycles)
	}
}

// TestResidencySamplesGatedOnTracing: with a tracer attached but tracing
// disabled, launches must emit no per-SM residency counter samples — the
// samples belong to the intra-kernel timeline, which is off.
func TestResidencySamplesGatedOnTracing(t *testing.T) {
	d := NewDevice(testSpec())
	tr := obs.NewTracer()
	d.SetHooks(obs.NewHooks(tr, nil, nil))

	d.MustLaunch(saxpyLaunch(d, 4096))
	for _, e := range tr.Events() {
		if e.Ph == "C" && e.PID == obs.PIDSim {
			t.Fatal("residency counter sample emitted with tracing disabled")
		}
	}
}

// TestBlockDetailInstants: per-block dispatch instants appear only when
// block detail is enabled on the tracer.
func TestBlockDetailInstants(t *testing.T) {
	count := func(detail bool) int {
		d := NewDevice(testSpec())
		tr := obs.NewTracer()
		tr.SetBlockDetail(detail)
		d.SetHooks(obs.NewHooks(tr, nil, nil))
		d.MustLaunch(saxpyLaunch(d, 4096))
		n := 0
		for _, e := range tr.Events() {
			if e.Ph == "i" && e.Name == "block" {
				n++
			}
		}
		return n
	}
	if got := count(false); got != 0 {
		t.Errorf("block instants without detail: %d, want 0", got)
	}
	if got := count(true); got != 4096/128 {
		t.Errorf("block instants with detail: %d, want %d", got, 4096/128)
	}
}

// TestNilObserverLaunchAllocsUnchanged asserts the nil-tracer hook path adds
// zero allocations per launch: a device with SetHooks(nil) must
// allocate exactly as much per launch as one that never saw an observer.
func TestNilObserverLaunchAllocsUnchanged(t *testing.T) {
	measure := func(attachNil bool) float64 {
		d := NewDevice(testSpec())
		if attachNil {
			d.SetHooks(nil)
		}
		l := saxpyLaunch(d, 1024)
		d.MustLaunch(l) // warm up caches and slice capacities
		return testing.AllocsPerRun(10, func() {
			if _, err := d.Launch(l); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure(false)
	withNil := measure(true)
	if withNil > base {
		t.Errorf("nil-observer launch allocates %.1f allocs/op vs %.1f baseline; hook path must be allocation-free", withNil, base)
	}
}
