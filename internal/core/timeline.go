package core

import (
	"gputopdown/internal/obs"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sm"
)

// TimelinePoint is one interval of an intra-kernel timeline: the Top-Down
// analysis of the counters accumulated during [StartCycle,
// StartCycle+Interval).
type TimelinePoint struct {
	StartCycle uint64
	Interval   uint64
	Analysis   *Analysis
}

// AnalyzeTimeline turns per-interval counter samples (sim.RunResult.Trace)
// into a sequence of Top-Down analyses — the paper's §V.D dynamic analysis
// pushed below kernel granularity. Intervals in which nothing executed are
// skipped. This consumes full counter snapshots and therefore only works on
// the simulator (real PMUs would need hardware PM sampling); the analysis
// itself is the unchanged Top-Down machinery.
func (an *Analyzer) AnalyzeTimeline(kernelName string, samples []sm.Counters, interval uint64) []TimelinePoint {
	var out []TimelinePoint
	if tr := an.hooks.Trace(); tr != nil {
		spanStart := tr.Now()
		defer func() {
			tr.Complete(obs.PIDProfiler, 2, "core",
				"timeline "+kernelName, spanStart,
				map[string]any{"samples": len(samples), "points": len(out),
					"interval_cycles": interval})
		}()
	}
	for i := range samples {
		s := &samples[i]
		if s.InstExecuted == 0 && s.ActiveWarpCycles == 0 {
			continue
		}
		values := pmu.Values{}
		for _, id := range pmu.AllCounters() {
			values[id] = pmu.Read(s, id)
		}
		a := an.Analyze(kernelName, values)
		a.Weight = float64(s.ActiveCycles)
		out = append(out, TimelinePoint{
			StartCycle: uint64(i) * interval,
			Interval:   interval,
			Analysis:   a,
		})
	}
	return out
}
