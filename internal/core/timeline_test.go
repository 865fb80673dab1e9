package core

import (
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/obs"
	"gputopdown/internal/sm"
)

// activeSample builds a plausible non-idle interval counter delta.
func activeSample(scale uint64) sm.Counters {
	c := sm.Counters{
		ActiveCycles:       100 * scale,
		ElapsedCycles:      120 * scale,
		ActiveWarpCycles:   800 * scale,
		SubpActiveCycles:   400 * scale,
		InstExecuted:       150 * scale,
		InstIssued:         160 * scale,
		ThreadInstExecuted: 150 * 32 * scale,
	}
	c.WarpStateCycles[sm.StateSelected] = 160 * scale
	c.WarpStateCycles[sm.StateLongScoreboard] = 640 * scale
	return c
}

// TestAnalyzeTimelineAllIdle: a run whose every interval is idle must yield
// an empty timeline, not a slice of degenerate analyses.
func TestAnalyzeTimelineAllIdle(t *testing.T) {
	an := NewAnalyzer(gpu.QuadroRTX4000(), Level1)
	idle := make([]sm.Counters, 8)
	// Idle intervals may still accrue elapsed cycles (warps all drained).
	for i := range idle {
		idle[i].ElapsedCycles = 100
	}
	points := an.AnalyzeTimeline("k", idle, 100)
	if len(points) != 0 {
		t.Fatalf("all-idle run produced %d timeline points, want 0", len(points))
	}
	if points := an.AnalyzeTimeline("k", nil, 100); len(points) != 0 {
		t.Fatalf("nil samples produced %d points, want 0", len(points))
	}
}

// TestAnalyzeTimelineWeightsAndPositions: every returned point must carry a
// populated Weight (its interval's active cycles) and the StartCycle of the
// sample index it came from, idle gaps included.
func TestAnalyzeTimelineWeightsAndPositions(t *testing.T) {
	an := NewAnalyzer(gpu.QuadroRTX4000(), Level1)
	const interval = 100
	samples := []sm.Counters{
		activeSample(1),
		{}, // idle gap — skipped, but indices after it keep their position
		activeSample(2),
		activeSample(3),
	}
	points := an.AnalyzeTimeline("k", samples, interval)
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3 (idle interval skipped)", len(points))
	}
	wantStarts := []uint64{0, 200, 300}
	wantWeights := []float64{100, 200, 300}
	for i, p := range points {
		if p.Analysis == nil {
			t.Fatalf("point %d has nil Analysis", i)
		}
		if p.Analysis.Weight == 0 {
			t.Errorf("point %d Weight not populated", i)
		}
		if p.Analysis.Weight != wantWeights[i] {
			t.Errorf("point %d Weight = %v, want %v", i, p.Analysis.Weight, wantWeights[i])
		}
		if p.StartCycle != wantStarts[i] {
			t.Errorf("point %d StartCycle = %d, want %d", i, p.StartCycle, wantStarts[i])
		}
		if p.Interval != interval {
			t.Errorf("point %d Interval = %d, want %d", i, p.Interval, interval)
		}
		if p.Analysis.Retire <= 0 {
			t.Errorf("point %d Retire = %v, want > 0", i, p.Analysis.Retire)
		}
	}
}

// TestAnalyzeTimelineObserverSpan: with a tracer attached the timeline
// analysis itself becomes a span carrying sample/point counts.
func TestAnalyzeTimelineObserverSpan(t *testing.T) {
	an := NewAnalyzer(gpu.QuadroRTX4000(), Level1)
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	an.SetHooks(obs.NewHooks(tr, reg, nil))
	samples := []sm.Counters{activeSample(1), activeSample(2)}
	points := an.AnalyzeTimeline("k", samples, 50)
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	var found bool
	for _, e := range tr.Events() {
		if e.Ph == "X" && e.Name == "timeline k" {
			found = true
			if e.Args["samples"].(int) != 2 || e.Args["points"].(int) != 2 {
				t.Errorf("timeline span args = %v", e.Args)
			}
		}
	}
	if !found {
		t.Error("no timeline span recorded")
	}
	// Each interval analysis must also have fed the analysis self-metrics.
	if got := reg.Counter("analysis_total", "", nil).Value(); got != 2 {
		t.Errorf("analysis_total = %v, want 2", got)
	}
}
