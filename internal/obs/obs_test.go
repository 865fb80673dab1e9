package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestTraceJSONFormat validates the Chrome trace-event exporter: the output
// must parse with encoding/json and contain well-formed "X", "i", "C" and
// "M" events with microsecond timestamps.
func TestTraceJSONFormat(t *testing.T) {
	tr := NewTracer()
	tr.NameProcess(PIDProfiler, "profiler")
	start := tr.Now()
	tr.Complete(PIDProfiler, 1, "cupti", "pass 1/8", start,
		map[string]any{"kernel": "k"})
	tr.CompleteAt(PIDSim, 0, "sim", "kernel", 10, 25.5,
		map[string]any{"cycles": 1000})
	tr.Instant(PIDSim, 1, "dispatch", "block", 12, map[string]any{"block": 3})
	tr.CounterValue(PIDSim, 0, "SM0 resident blocks", "blocks", 14, 4)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
	phases := map[string]int{}
	for _, e := range parsed.TraceEvents {
		phases[e.Ph]++
	}
	for _, ph := range []string{"X", "i", "C", "M"} {
		if phases[ph] == 0 {
			t.Errorf("no %q events in trace", ph)
		}
	}
	// The explicit-timestamp span must round-trip exactly.
	found := false
	for _, e := range parsed.TraceEvents {
		if e.Ph == "X" && e.Name == "kernel" {
			found = true
			if e.TS != 10 || e.Dur != 25.5 || e.PID != PIDSim {
				t.Errorf("sim span corrupted: ts=%v dur=%v pid=%d", e.TS, e.Dur, e.PID)
			}
			if e.Args["cycles"].(float64) != 1000 {
				t.Errorf("span args corrupted: %v", e.Args)
			}
		}
	}
	if !found {
		t.Error("explicit sim span missing from trace")
	}
	if got := tr.Len(); got != 5 {
		t.Errorf("Len = %d, want 5", got)
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Error("Reset did not clear events")
	}
}

// TestPrometheusTextFormat validates the metrics exporter: HELP/TYPE lines,
// label rendering, histogram bucket cumulativeness and _sum/_count.
func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("profiler_passes_total", "Replay passes.", nil)
	c.Add(8)
	c.Inc()
	g := r.Gauge("profiler_replay_overhead_ratio", "Fig. 13 ratio.",
		Labels{"app": "rodinia/srad_v1", "gpu": `q"x`})
	g.Set(13.2)
	h := r.Histogram("profiler_pass_wall_seconds", "Pass wall time.",
		[]float64{0.01, 0.1, 1}, nil)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantLines := []string{
		"# HELP profiler_passes_total Replay passes.",
		"# TYPE profiler_passes_total counter",
		"profiler_passes_total 9",
		"# TYPE profiler_replay_overhead_ratio gauge",
		`profiler_replay_overhead_ratio{app="rodinia/srad_v1",gpu="q\"x"} 13.2`,
		"# TYPE profiler_pass_wall_seconds histogram",
		`profiler_pass_wall_seconds_bucket{le="0.01"} 1`,
		`profiler_pass_wall_seconds_bucket{le="0.1"} 2`,
		`profiler_pass_wall_seconds_bucket{le="1"} 2`,
		`profiler_pass_wall_seconds_bucket{le="+Inf"} 3`,
		"profiler_pass_wall_seconds_sum 5.055",
		"profiler_pass_wall_seconds_count 3",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing line %q\ngot:\n%s", w, out)
		}
	}
	// Every non-comment line must be "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestRegistryGetOrCreate checks that handles are shared per name+labels.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", Labels{"k": "v"})
	b := r.Counter("x_total", "x", Labels{"k": "v"})
	if a != b {
		t.Error("same name+labels returned distinct counters")
	}
	c := r.Counter("x_total", "x", Labels{"k": "w"})
	if a == c {
		t.Error("distinct labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("type clash did not panic")
		}
	}()
	r.Gauge("x_total", "x", nil)
}

// TestHistogramInfinities checks formatValue and +/-Inf bucket rendering.
func TestHistogramInfinities(t *testing.T) {
	if formatValue(math.Inf(1)) != "+Inf" || formatValue(math.Inf(-1)) != "-Inf" {
		t.Error("infinity formatting broken")
	}
	if formatValue(16) != "16" {
		t.Errorf("integer formatting: %q", formatValue(16))
	}
}

// TestNilObservabilityIsSafeAndAllocationFree asserts the disabled fast
// path: every hook method on a nil tracer, nil registry and nil metric
// handles is a no-op and allocates zero bytes.
func TestNilObservabilityIsSafeAndAllocationFree(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	var lg *Logger
	var fl *Flame
	if reg.Counter("x", "x", nil) != nil {
		t.Error("nil registry returned a live counter")
	}
	if lg.On(LevelError) {
		t.Error("nil logger claims a level enabled")
	}
	if lg.Component("sim") != nil {
		t.Error("nil logger returned a live component logger")
	}
	if NewHooks(nil, nil, nil) != nil {
		t.Error("hooks with no tracer, registry or logger are not nil")
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = tr.Now()
		tr.Complete(PIDProfiler, 1, "cat", "name", 0, nil)
		tr.CompleteAt(PIDSim, 0, "cat", "name", 0, 1, nil)
		tr.Instant(PIDSim, 0, "cat", "name", 0, nil)
		tr.CounterValue(PIDSim, 0, "n", "s", 0, 1)
		tr.NameProcess(1, "p")
		tr.SetBlockDetail(true)
		_ = tr.BlockDetail()
		tr.Reset()
		_ = tr.Len()
		c.Add(1)
		c.Inc()
		_ = c.Value()
		g.Set(2)
		g.Add(1)
		_ = g.Value()
		h.Observe(3)
		_ = h.Count()
		_ = h.Sum()
		if lg.On(LevelDebug) {
			lg.Debug("unreachable on the disabled path")
		}
		fl.Add(1, "a", "b")
		disabledInvocation(nil, 1)
	})
	if allocs != 0 {
		t.Errorf("nil observability hooks allocated %.1f bytes/op, want 0", allocs)
	}
}

// BenchmarkObsDisabled is the CI allocation gate for the disabled
// observability path: the hook sequence one profiled, cache-missed and
// analysed kernel invocation takes through the device, the session and the
// analyzer, against nil *Hooks, must stay at 0 allocs/op.
func BenchmarkObsDisabled(b *testing.B) {
	var h *Hooks
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledInvocation(h, i)
	}
}

// disabledInvocation is that sequence: on nil hooks every guard fails and
// every method returns at once.
func disabledInvocation(h *Hooks, i int) {
	start := h.Trace().Now()
	for _, c := range []Component{Cupti, Cache, Sim, Core} {
		if lg := h.Log(c); lg.On(LevelDebug) {
			lg.Debug("unreachable on the disabled path", "invocation", i)
		}
	}
	if h != nil {
		h.Launches.Inc()
	}
	h.Trace().Complete(PIDProfiler, 1, "cupti", "pass", start, nil)
	h.AppOverhead("app", "gpu", 1)
	if lg := h.Log(Profiler); lg.On(LevelInfo) {
		lg.Info("app profiled", "overhead", 1)
	}
}

// TestWriteFileErrors ensures nil exporters fail loudly instead of silently
// writing nothing.
func TestWriteFileErrors(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	if err := tr.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("nil tracer WriteJSON succeeded")
	}
	if err := reg.WriteProm(&bytes.Buffer{}); err == nil {
		t.Error("nil registry WriteProm succeeded")
	}
}
