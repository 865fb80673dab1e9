package sim

import (
	"fmt"
	"reflect"
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/obs"
)

// TestSMsUsedIsGridPrefix: a launch runs on the first min(blocks, SMs) SMs
// and touches no other. On both full devices, for grids around and past the
// SM count, SMsUsed is that prefix and PerSM holds its SMs alone.
// A 4-block launch run right after one that dirtied every SM — clocks,
// counters and trace bases left at that launch's end, caches flushed as a
// profiled launch has them — returns what the same launch returns on a
// fresh device, traced or not.
func TestSMsUsedIsGridPrefix(t *testing.T) {
	for _, spec := range []*gpu.Spec{gpu.QuadroRTX4000(), gpu.GTX1070()} {
		n := spec.SMs
		for _, blocks := range []int{1, n - 1, n, n + 1, 3 * n} {
			d := NewDevice(spec)
			r := d.MustLaunch(saxpyLaunch(d, blocks*128))
			if used := min(blocks, n); r.SMsUsed != used {
				t.Errorf("%s, %d blocks: SMsUsed = %d, want %d", spec.Name, blocks, r.SMsUsed, used)
			}
			if len(r.PerSM) != r.SMsUsed {
				t.Errorf("%s, %d blocks: %d per-SM entries for %d SMs used", spec.Name, blocks, len(r.PerSM), r.SMsUsed)
			}
		}

		for _, interval := range []uint64{0, 64} {
			tiny := func(dirty bool) *RunResult {
				d := NewDevice(spec)
				d.EnableTrace(interval)
				wide := saxpyLaunch(d, 3*n*128)
				l := saxpyLaunch(d, 4*128)
				if dirty {
					if r := d.MustLaunch(wide); r.SMsUsed != n {
						t.Fatalf("%s: the dirtying launch used %d of %d SMs", spec.Name, r.SMsUsed, n)
					}
				}
				d.FlushCaches()
				return d.MustLaunch(l)
			}
			fresh, after := tiny(false), tiny(true)
			if !reflect.DeepEqual(fresh, after) {
				t.Errorf("%s, trace interval %d: a 4-block launch after a device-wide one differs from it on a fresh device:\nfresh: cycles=%d SMsUsed=%d %+v\nafter: cycles=%d SMsUsed=%d %+v",
					spec.Name, interval, fresh.Cycles, fresh.SMsUsed, fresh.Counters, after.Cycles, after.SMsUsed, after.Counters)
			}
		}
	}
}

// TestTraceSamplesMatchNaive: the run loop pauses every SM at each multiple
// of the trace interval, also inside a fast-forward jump, samples its
// counters there and samples the residency track at the same points. On
// kernels whose long-scoreboard skips straddle those points, the whole
// RunResult, Trace included, and the residency samples on the trace track
// equal the reference's at intervals of 1, 16, 64 and 1000 cycles. The
// fast-forward loop still skips: fewer ticks than the reference (at
// interval 1 every cycle is a sample point, so as many), and at interval 16
// more than its own untraced run, since the sample points cut its jumps.
func TestTraceSamplesMatchNaive(t *testing.T) {
	for _, spec := range []*gpu.Spec{testSpec(), testSpecPascal()} {
		for _, k := range []struct {
			name   string
			blocks int
		}{{"memchain", 8}, {"ticket", 8}} {
			run := func(ff bool, interval uint64) (*RunResult, uint64, []obs.Event) {
				d := NewDevice(spec)
				d.SetReference(!ff)
				d.EnableTrace(interval)
				tr := obs.NewTracer()
				d.SetHooks(obs.NewHooks(tr, nil, nil))
				l := memBoundLaunch(d, k.blocks, 0)
				if k.name == "ticket" {
					l = ticketLaunch(d, 3, 12, k.blocks, 64)
				}
				r := d.MustLaunch(l)
				var residency []obs.Event
				for _, e := range tr.Events() {
					if e.Ph == "C" {
						residency = append(residency, e)
					}
				}
				return r, d.LastLaunchTicks(), residency
			}
			_, untraced, _ := run(true, 0)
			for _, interval := range []uint64{1, 16, 64, 1000} {
				name := fmt.Sprintf("%s %s interval %d", spec.Name, k.name, interval)
				naive, naiveTicks, naiveRes := run(false, interval)
				fast, fastTicks, fastRes := run(true, interval)
				if len(naive.Trace) == 0 || uint64(len(naive.Trace)) != naive.Cycles/interval {
					t.Fatalf("%s: %d trace samples over %d cycles", name, len(naive.Trace), naive.Cycles)
				}
				if !reflect.DeepEqual(naive, fast) {
					t.Errorf("%s: naive/ff diverge: cycles %d vs %d, %d vs %d samples", name, naive.Cycles, fast.Cycles, len(naive.Trace), len(fast.Trace))
					for i := range min(len(naive.Trace), len(fast.Trace)) {
						if naive.Trace[i] != fast.Trace[i] {
							t.Errorf("%s: sample %d differs:\nnaive: %+v\nff:    %+v", name, i, naive.Trace[i], fast.Trace[i])
							break
						}
					}
				}
				if !reflect.DeepEqual(naiveRes, fastRes) {
					t.Errorf("%s: residency track differs: %d naive samples, %d ff", name, len(naiveRes), len(fastRes))
				}
				switch {
				case interval == 1 && fastTicks != naiveTicks:
					t.Errorf("%s: %d ff ticks, want the reference's %d", name, fastTicks, naiveTicks)
				case interval > 1 && fastTicks >= naiveTicks:
					t.Errorf("%s: ff ticked %d times, the reference %d: it skipped nothing", name, fastTicks, naiveTicks)
				case interval == 16 && fastTicks <= untraced:
					t.Errorf("%s: %d ticks, untraced %d: no jump stopped at a sample point", name, fastTicks, untraced)
				}
			}
		}
	}
}
