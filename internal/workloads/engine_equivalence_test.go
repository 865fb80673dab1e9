package workloads

import (
	"reflect"
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
)

// collectRuns executes an app on a fresh device with the given run loop and
// trace setting, and returns every launch's full RunResult — cycles,
// aggregate counters, per-SM deltas and trace samples.
func collectRuns(t *testing.T, a *App, spec *gpu.Spec, fastForward bool, traceInterval uint64) []*sim.RunResult {
	t.Helper()
	dev := sim.NewDevice(spec)
	dev.SetFastForward(fastForward)
	if traceInterval > 0 {
		dev.EnableTrace(traceInterval)
	}
	var runs []*sim.RunResult
	err := a.Execute(dev, func(l *kernel.Launch) error {
		res, err := dev.Launch(l)
		if err != nil {
			return err
		}
		runs = append(runs, res)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", a.ID(), err)
	}
	return runs
}

// TestEngineEquivalenceAllApps pins the production loop to its oracle: for
// every suite app on both paper GPUs, each launch's RunResult (Cycles,
// Counters, PerSM, Trace) must be byte-for-byte equal between the naive
// per-cycle loop and the fast-forward loop.
func TestEngineEquivalenceAllApps(t *testing.T) {
	specs := []struct {
		name string
		mk   func() *gpu.Spec
	}{
		{"turing", func() *gpu.Spec { return gpu.QuadroRTX4000().WithSMs(4) }},
		{"pascal", func() *gpu.Spec { return gpu.GTX1070().WithSMs(4) }},
	}
	for _, suite := range Suites() {
		for _, a := range BySuite(suite) {
			for _, spec := range specs {
				a, spec := a, spec
				t.Run(a.ID()+"/"+spec.name, func(t *testing.T) {
					t.Parallel()
					naive := collectRuns(t, a, spec.mk(), false, 0)
					ff := collectRuns(t, a, spec.mk(), true, 0)
					compareRuns(t, naive, ff)
				})
			}
		}
	}
}

// TestEngineEquivalenceWithTracing repeats the equivalence check with the
// intra-kernel timeline enabled on a representative subset: trace samples
// are the finest-grained observable (one counter delta per 64 cycles) and
// the fast-forward engine must land every sample on the exact cycle the
// naive loop does.
func TestEngineEquivalenceWithTracing(t *testing.T) {
	apps := []struct{ suite, name string }{
		{"rodinia", "srad_v2"},                     // memory-bound: longest skips
		{"rodinia", "backprop"},                    // barriers + shared memory
		{"cudasamples", "binaryPartitionCG_tile8"}, // divergence
	}
	for _, id := range apps {
		a, ok := Lookup(id.suite, id.name)
		if !ok {
			t.Fatalf("unknown app %s/%s", id.suite, id.name)
		}
		t.Run(a.ID(), func(t *testing.T) {
			t.Parallel()
			spec := func() *gpu.Spec { return gpu.QuadroRTX4000().WithSMs(4) }
			naive := collectRuns(t, a, spec(), false, 64)
			ff := collectRuns(t, a, spec(), true, 64)
			compareRuns(t, naive, ff)
		})
	}
}

func compareRuns(t *testing.T, naive, ff []*sim.RunResult) {
	t.Helper()
	if len(naive) != len(ff) {
		t.Fatalf("launch count differs: naive %d, fast-forward %d", len(naive), len(ff))
	}
	for i := range naive {
		n, f := naive[i], ff[i]
		if n.Cycles != f.Cycles {
			t.Errorf("launch %d (%s): cycles differ: naive %d, fast-forward %d", i, n.Kernel, n.Cycles, f.Cycles)
		}
		if !reflect.DeepEqual(n.Counters, f.Counters) {
			t.Errorf("launch %d (%s): aggregate counters differ:\nnaive: %+v\nfast-forward: %+v", i, n.Kernel, n.Counters, f.Counters)
		}
		if !reflect.DeepEqual(n.PerSM, f.PerSM) {
			t.Errorf("launch %d (%s): per-SM counters differ", i, n.Kernel)
		}
		if !reflect.DeepEqual(n.Trace, f.Trace) {
			t.Errorf("launch %d (%s): trace samples differ (naive %d samples, fast-forward %d)", i, n.Kernel, len(n.Trace), len(f.Trace))
		}
		if !reflect.DeepEqual(n, f) {
			t.Errorf("launch %d (%s): RunResult differs beyond compared fields", i, n.Kernel)
		}
	}
}
