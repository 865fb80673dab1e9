package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

const testGolden = "../internal/check/testdata/golden"

// Smoke workloads: one cheap op each (rodinia/myocyte profiles in ~0.1 s), so
// that whole runs fit a unit test.
var (
	smokeLibrary = &workload{
		Name: "smoke", Why: "test",
		Ops: []op{{Suite: "rodinia", App: "myocyte", GPU: "rtx4000", Cache: true}},
	}
	smokeDaemon = &workload{
		Name: "smoke-daemon", Why: "test",
		Ops:    []op{{Suite: "rodinia", App: "myocyte", GPU: "gtx1070"}},
		Daemon: true,
	}
)

func smokeConfig(t *testing.T, w *workload) config {
	return config{
		w: w, seed: 1, seconds: 0, goldenDir: testGolden,
		traceOut: filepath.Join(t.TempDir(), "trace.json"),
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// checkResult checks the result line's schema against the declared metrics.
func checkResult(t *testing.T, d *detail, defs []metricDef) {
	t.Helper()
	line, err := json.Marshal(d.Result)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	if len(keys) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
		t.Errorf("result keys = %v, want correct, attempted, failed, metrics", keys)
	}
	if !d.Result.Correct || d.Result.Failed != 0 || d.Result.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d; failures: %v", d.Result.Correct, d.Result.Attempted, d.Result.Failed, d.Failures)
	}
	if len(d.Result.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(d.Result.Metrics), len(defs))
	}
	for _, def := range defs {
		v, ok := d.Result.Metrics[def.Name]
		if !ok {
			t.Errorf("metric %s missing", def.Name)
			continue
		}
		if v.Unit != def.Unit {
			t.Errorf("metric %s unit %q, want %q", def.Name, v.Unit, def.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v", def.Name, v.Value)
		}
	}
}

func TestEndToEndRun(t *testing.T) {
	for _, w := range []*workload{smokeLibrary, smokeDaemon} {
		t.Run(w.Name, func(t *testing.T) {
			d, err := runEndToEnd(context.Background(), smokeConfig(t, w))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, d, endToEnd)
			for _, def := range endToEnd {
				if d.Result.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", def.Name, d.Result.Metrics[def.Name].Value)
				}
			}
			sweeps, setUps := len(d.Samples["sweep_raw_s"]), len(d.Samples["setup_raw_s"])
			// A library run's first round is a set-up only.
			wantSetUps := sweeps + 1
			if w.Daemon {
				wantSetUps = sweeps
			}
			if sweeps < minSamples || setUps != wantSetUps {
				t.Errorf("%d timed sweeps and %d set-ups, want >= %d and %d", sweeps, setUps, minSamples, wantSetUps)
			}
			if len(d.Samples["setup_burst_ms"]) == 0 || len(d.Samples["sweep_burst_ms"]) == 0 {
				t.Error("a phase took no calibration burst")
			}
			if d.SetUpSlowdown <= 0 || d.SweepSlowdown <= 0 {
				t.Errorf("slowdowns = %v, %v, want > 0", d.SetUpSlowdown, d.SweepSlowdown)
			}
			if d.Host.NCPU < 1 || d.Host.ChaseNS <= 0 || d.Host.GoVersion == "" || d.SweepMinS <= 0 {
				t.Errorf("host facts incomplete: %+v, sweep_min_s %v", d.Host, d.SweepMinS)
			}
		})
	}
}

// TestTracedRun checks the per-layer result and that the spans form a forest:
// unique ids, every parent present, every child inside its parent.
func TestTracedRun(t *testing.T) {
	for _, w := range []*workload{smokeLibrary, smokeDaemon} {
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t, w)
			d, err := runTraced(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, d, perLayer)
			m := d.Result.Metrics
			if c := m["trace.coverage_min_pct"].Value; c < 90 || c > 100 {
				t.Errorf("trace.coverage_min_pct = %v", c)
			}
			if w.Ops[0].Cache && m["cupti.cache_misses"].Value == 0 {
				t.Error("cache op reported no cache lookups")
			}
			if w.Daemon && (m["serve.http_requests_per_job"].Value < 3 || m["serve.stub_job_us"].Value <= 0) {
				t.Errorf("serve layer unmeasured: %v requests/job, stub %v us",
					m["serve.http_requests_per_job"].Value, m["serve.stub_job_us"].Value)
			}

			data, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			type event struct {
				Name string         `json:"name"`
				TS   float64        `json:"ts"`
				Dur  float64        `json:"dur"`
				Args map[string]any `json:"args"`
			}
			var file struct {
				TraceEvents []event `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			if float64(len(file.TraceEvents)) != m["trace.spans"].Value || len(file.TraceEvents) == 0 {
				t.Fatalf("%d trace events, trace.spans = %v", len(file.TraceEvents), m["trace.spans"].Value)
			}
			byID := map[int]event{}
			for _, e := range file.TraceEvents {
				id := int(e.Args["id"].(float64))
				if _, dup := byID[id]; dup {
					t.Errorf("span id %d used twice", id)
				}
				byID[id] = e
			}
			for id, e := range byID {
				parent := int(e.Args["parent"].(float64))
				if parent == 0 {
					continue
				}
				p, ok := byID[parent]
				if !ok {
					t.Errorf("span %d: parent %d missing", id, parent)
					continue
				}
				if e.Args["op"] != p.Args["op"] {
					t.Errorf("span %d: op %v, parent's op %v", id, e.Args["op"], p.Args["op"])
				}
				// Spans built from the server's job timestamps sit on another
				// clock reading than their client-side parent; allow them 1 ms.
				const slackUS = 1000
				if e.TS < p.TS-slackUS || e.TS+e.Dur > p.TS+p.Dur+slackUS {
					t.Errorf("span %d (%s) [%v, %v] outside parent %d (%s) [%v, %v]",
						id, e.Name, e.TS, e.TS+e.Dur, parent, p.Name, p.TS, p.TS+p.Dur)
				}
			}
		})
	}
}

// TestCorruptGoldenFailsOp runs against a corpus whose golden differs in one
// byte: the op must be reported failed, not the run aborted.
func TestCorruptGoldenFailsOp(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(testGolden, "rtx4000", "rodinia__myocyte.json")
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 1
	if err := os.MkdirAll(filepath.Join(dir, "rtx4000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "rtx4000", "rodinia__myocyte.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t, smokeLibrary)
	cfg.goldenDir = dir
	d, err := runEndToEnd(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Result.Correct || d.Result.Failed != d.Result.Attempted || len(d.Failures) == 0 {
		t.Errorf("correct=%v failed=%d of %d, want every op failed", d.Result.Correct, d.Result.Failed, d.Result.Attempted)
	}
}

// TestOrderIsSeeded checks that a sweep executes every op once, in an order
// the seed decides.
func TestOrderIsSeeded(t *testing.T) {
	h := &harness{ops: make([]*boundOp, 8)}
	for i := range h.ops {
		h.ops[i] = &boundOp{id: string(rune('a' + i))}
	}
	draw := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		var orders []string
		for sweep := 0; sweep < 2; sweep++ {
			order := ""
			res := h.each(rng, func(b *boundOp) (opSample, error) {
				order += b.id
				return opSample{}, nil
			})
			if res.Attempted != 8 || len(res.Ops) != 8 {
				t.Errorf("sweep attempted %d ops and recorded %d, want 8", res.Attempted, len(res.Ops))
			}
			for _, b := range h.ops {
				if strings.Count(order, b.id) != 1 {
					t.Errorf("op %s executed %d times in sweep %q, want once", b.id, strings.Count(order, b.id), order)
				}
			}
			orders = append(orders, order)
		}
		return orders
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("same seed gave different op orders")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("different seeds gave the same op orders")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 20, 40})
	if q1 != 10 || q3 != 40 {
		t.Errorf("quartiles = %v, %v; want 10, 40", q1, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Layer: "b", Start: 40, End: 70}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "c", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 30, 4: 10} {
		if int64(self[id]) != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byLayer, coverage := layerSelf(spans, "op")
	if byLayer["a"] != 30 || byLayer["b"] != 30 || byLayer["c"] != 10 || coverage != 0.7 {
		t.Errorf("byLayer = %v, coverage = %v", byLayer, coverage)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares what the program
// emits, within the limits the driver enforces.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	if len(file.Workloads) != len(allWorkloads) {
		t.Fatalf("%d workloads declared, %d defined", len(file.Workloads), len(allWorkloads))
	}
	for i, w := range allWorkloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, file.Workloads[i].Name, file.Workloads[i].Why, w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why of %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, declared []jsonMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d defined", kind, len(declared), len(defs))
			return
		}
		seen := map[string]bool{}
		for i, def := range defs {
			got := declared[i]
			if got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
				t.Errorf("%s %d: declared %+v, defined %+v", kind, i, got, def)
			}
			if !nameRE.MatchString(def.Name) || !unitRE.MatchString(def.Unit) || seen[def.Name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, def.Name, def.Unit)
			}
			seen[def.Name] = true
			if def.Better != "lower" && def.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, def.Name, def.Better)
			}
			switch {
			case bounded && (got.Bound == nil || *got.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("%s %s: bound declared %v, defined %v", kind, def.Name, got.Bound, def.Bound)
			case !bounded && got.Bound != nil:
				t.Errorf("%s %s: per-layer metrics have no bound", kind, def.Name)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
	if len(file.PerLayer) > 128 || len(file.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(file.EndToEnd), len(file.PerLayer))
	}
}
