package sim

import (
	"testing"

	"gputopdown/internal/obs"
)

// The tracer-nil/tracer-enabled pair quantifies the observability layer's
// overhead on the launch hot path. With no observer attached the hooks are
// single nil-guarded branches; with a tracer attached each launch pays for
// span construction and per-SM residency sampling.

func benchLaunch(b *testing.B, attach func(*Device)) {
	d := NewDevice(testSpec())
	if attach != nil {
		attach(d)
	}
	l := saxpyLaunch(d, 4096)
	d.MustLaunch(l) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchTracerNil is the baseline: no observer attached.
func BenchmarkLaunchTracerNil(b *testing.B) {
	benchLaunch(b, nil)
}

// BenchmarkLaunchObserverNilAttached: SetHooks(nil) — the explicit
// disabled path — must cost the same as the baseline.
func BenchmarkLaunchObserverNilAttached(b *testing.B) {
	benchLaunch(b, func(d *Device) { d.SetHooks(nil) })
}

// BenchmarkLaunchTracerEnabled: full tracer and metrics registry attached.
// The tracer is reset each iteration so event memory stays bounded.
func BenchmarkLaunchTracerEnabled(b *testing.B) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	benchLaunchReset(b, tr, reg)
}

func benchLaunchReset(b *testing.B, tr *obs.Tracer, reg *obs.Registry) {
	d := NewDevice(testSpec())
	d.SetHooks(obs.NewHooks(tr, reg, nil))
	l := saxpyLaunch(d, 4096)
	d.MustLaunch(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchMetricsOnly: registry attached but no tracer — the common
// production configuration (cheap counters, no event stream).
func BenchmarkLaunchMetricsOnly(b *testing.B) {
	benchLaunch(b, func(d *Device) { d.SetHooks(obs.NewHooks(nil, obs.NewRegistry(), nil)) })
}

// The Naive/FastForward pair quantifies the event-driven engine's wall-clock
// win on a memory-bound kernel (serialized DRAM-latency load chains — the
// workload class the paper's case studies are dominated by). Results are
// bit-identical between the two; only host time differs.

func benchEngine(b *testing.B, fastForward bool) {
	d := NewDevice(testSpec())
	d.SetFastForward(fastForward)
	l := memBoundLaunch(d, 32, 0)
	d.MustLaunch(l) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchNaive ticks every busy SM on every simulated cycle.
func BenchmarkLaunchNaive(b *testing.B) {
	benchEngine(b, false)
}

// BenchmarkLaunchFastForward jumps over provably idle cycle spans.
func BenchmarkLaunchFastForward(b *testing.B) {
	benchEngine(b, true)
}
