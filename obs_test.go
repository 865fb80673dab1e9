package gputopdown

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestObserverEndToEnd is the acceptance check for the observability layer:
// profiling an app with an attached observer must produce (1) valid Chrome
// trace-event JSON containing ph:"X" span events for replay passes and
// kernel launches, and (2) Prometheus text exposition containing the
// replay-overhead-ratio metric that matches the AppResult's own accounting.
func TestObserverEndToEnd(t *testing.T) {
	spec, _ := LookupGPU("rtx4000")
	tr := NewTracer()
	reg := NewMetricsRegistry()
	p := NewProfiler(spec.WithSMs(2), WithLevel(3), WithObserver(tr, reg))
	app, ok := LookupApp("rodinia", "nw")
	if !ok {
		t.Fatal("unknown app rodinia/nw")
	}
	res, err := p.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}

	// --- Chrome trace-event JSON ---
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	if err := tr.WriteFile(tracePath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var passSpans, launchSpans, profileSpans, sessionSpans, analyzeSpans int
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		switch {
		case strings.HasPrefix(e.Name, "pass "):
			passSpans++
		case strings.HasPrefix(e.Name, "launch "):
			launchSpans++
		case strings.HasPrefix(e.Name, "profile rodinia/"):
			sessionSpans++
		case strings.HasPrefix(e.Name, "profile "):
			profileSpans++
		case strings.HasPrefix(e.Name, "analyze "):
			analyzeSpans++
		}
	}
	// Each profiled kernel is simulated once: one pass span and one launch,
	// while profiler_passes_total accounts every scheduled pass.
	kernels := len(res.Kernels)
	if passSpans != kernels {
		t.Errorf("pass spans = %d, want %d (one per profiled kernel)", passSpans, kernels)
	}
	if launchSpans != kernels {
		t.Errorf("launch spans = %d, want %d (one per profiled kernel)", launchSpans, kernels)
	}
	if got, want := reg.Counter("profiler_passes_total", "", nil).Value(), float64(kernels*res.Passes); got != want {
		t.Errorf("profiler_passes_total = %v, want %v (%d kernels x %d passes)", got, want, kernels, res.Passes)
	}
	if profileSpans != kernels {
		t.Errorf("profile spans = %d, want %d", profileSpans, kernels)
	}
	if sessionSpans != 1 {
		t.Errorf("session spans = %d, want 1", sessionSpans)
	}
	if analyzeSpans != kernels {
		t.Errorf("analyze spans = %d, want %d", analyzeSpans, kernels)
	}

	// --- Prometheus text exposition ---
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	prom := buf.String()
	for _, want := range []string{
		"# TYPE profiler_replay_overhead_ratio gauge",
		"profiler_replay_overhead_ratio ",
		`profiler_replay_overhead_ratio{app="rodinia/nw"`,
		"# TYPE profiler_passes_total counter",
		"# TYPE profiler_flush_cycles_total counter",
		"# TYPE sim_throughput_cycles_per_second gauge",
		"# TYPE profiler_pass_wall_seconds histogram",
		"profiler_pass_wall_seconds_count ",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
	// The live-instrumented ratio must agree with the result's arithmetic.
	wantNative := float64(res.NativeCycles)
	wantProfiled := float64(res.ProfiledCycles)
	if got := reg.Counter("profiler_native_cycles_total", "", nil).Value(); got != wantNative {
		t.Errorf("native cycles metric %v != result %v", got, wantNative)
	}
	if got := reg.Counter("profiler_profiled_cycles_total", "", nil).Value(); got != wantProfiled {
		t.Errorf("profiled cycles metric %v != result %v", got, wantProfiled)
	}
	if got := reg.Gauge("profiler_replay_overhead_ratio", "", nil).Value(); got != res.Overhead() {
		t.Errorf("overhead gauge %v != result %v", got, res.Overhead())
	}
	if res.WallSeconds <= 0 {
		t.Errorf("WallSeconds = %v, want > 0", res.WallSeconds)
	}
}

// TestObserverOffByDefault: a profiler without WithObserver must run with a
// detached device — no tracer, no registry, identical results.
func TestObserverOffByDefault(t *testing.T) {
	spec, _ := LookupGPU("rtx4000")
	app, _ := LookupApp("rodinia", "nw")
	plain := NewProfiler(spec.WithSMs(2), WithLevel(1))
	observed := NewProfiler(spec.WithSMs(2), WithLevel(1),
		WithObserver(NewTracer(), NewMetricsRegistry()))
	a, err := plain.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	b, err := observed.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	if a.NativeCycles != b.NativeCycles || a.ProfiledCycles != b.ProfiledCycles {
		t.Errorf("observer changed results: native %d/%d profiled %d/%d",
			a.NativeCycles, b.NativeCycles, a.ProfiledCycles, b.ProfiledCycles)
	}
	if a.Aggregate.Retire != b.Aggregate.Retire {
		t.Errorf("observer changed analysis: retire %v vs %v",
			a.Aggregate.Retire, b.Aggregate.Retire)
	}
}
