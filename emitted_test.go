package gputopdown

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"gputopdown/internal/workloads"
)

// TestProfiledRunEmits pins what profiling makes observable, by name: the
// metric series (name and label keys), the spans (pid/tid, category, and the
// name up to its first space, so without the kernel or app id) and the log
// records (component and message) that one tracer, one registry and one
// debug-level logger collect from an autotune profiled with the replay cache
// (simulated and cache-served invocations), the same app under 1-in-2
// sampling (native invocations) and a timeline of it. Values may move; these
// names are what dashboards, trace queries and log filters hold on to.
func TestProfiledRunEmits(t *testing.T) {
	tr, reg := NewTracer(), NewMetricsRegistry()
	var logs bytes.Buffer
	logger, err := NewLogger(&logs, "debug", "json")
	if err != nil {
		t.Fatal(err)
	}
	spec, app, ctx := QuadroRTX4000().WithSMs(2), workloads.GemmAutotuneSized(32, 3), context.Background()
	emptyReplayResults() // the cached run must simulate and serve invocations
	observed := func(opt Option) *Profiler {
		return NewProfiler(spec, WithObserver(tr, reg), WithLogger(logger), opt)
	}
	if _, err := observed(WithReplayCache(true)).ProfileApp(ctx, app); err != nil {
		t.Fatal(err)
	}
	if _, err := observed(WithSampling(2)).ProfileApp(ctx, app); err != nil {
		t.Fatal(err)
	}
	if _, err := observed(WithLevel(3)).Timeline(ctx, app, "sgemm_kernel", 0, 256); err != nil {
		t.Fatal(err)
	}

	emitted := map[string]bool{}
	var prom bytes.Buffer
	if err := reg.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	checkMetricTable(t, prom.String())
	labelKey := regexp.MustCompile(`(\w+)="`)
	for _, line := range strings.Split(prom.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, _, _ := strings.Cut(line, " ")
		name, labels, _ := strings.Cut(series, "{")
		var keys []string
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			keys = append(keys, m[1])
		}
		emitted[fmt.Sprintf("metric %s %v", name, keys)] = true
	}
	for _, e := range tr.Events() {
		if e.Ph == "X" {
			name, _, _ := strings.Cut(e.Name, " ")
			emitted[fmt.Sprintf("span %d/%d %s %s", e.PID, e.TID, e.Cat, name)] = true
		}
	}
	sampleEvery := map[int]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec struct {
			Component, Msg string
			SampleEvery    int `json:"sample_every"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		emitted["log "+rec.Component+": "+rec.Msg] = true
		if rec.Msg == "session configured" {
			sampleEvery[rec.SampleEvery] = true
		}
	}
	// The cached run's session profiles every invocation, the sampled one's
	// every second.
	if !sampleEvery[1] || !sampleEvery[2] || len(sampleEvery) != 2 {
		t.Errorf("session configured with sample_every %v, want 1 and 2", sampleEvery)
	}

	// Recorded before the session's invocation paths were merged into one.
	want := []string{
		"log cache: replay cache hit",
		"log cache: replay cache miss",
		"log core: analysis computed",
		"log cupti: kernel profiled",
		"log cupti: kernel run natively under sampling",
		"log cupti: profiling kernel",
		"log cupti: session configured",
		"log profiler: app profiled",
		"log sim: launch complete",
		"metric analysis_total []",
		"metric analysis_wall_seconds_bucket [le]",
		"metric analysis_wall_seconds_count []",
		"metric analysis_wall_seconds_sum []",
		"metric profiler_cache_flushes_total []",
		"metric profiler_flush_cycles_total []",
		"metric profiler_kernels_profiled_total []",
		"metric profiler_kernels_skipped_total []",
		"metric profiler_native_cycles_total []",
		"metric profiler_pass_wall_seconds_bucket [le]",
		"metric profiler_pass_wall_seconds_count []",
		"metric profiler_pass_wall_seconds_sum []",
		"metric profiler_pass_wall_seconds_total []",
		"metric profiler_passes_per_kernel []",
		"metric profiler_passes_total []",
		"metric profiler_profiled_cycles_total []",
		"metric profiler_replay_cache_entries []",
		"metric profiler_replay_cache_hits_total []",
		"metric profiler_replay_cache_misses_total []",
		"metric profiler_replay_overhead_ratio []",
		"metric profiler_replay_overhead_ratio [app gpu]",
		"metric sim_blocks_dispatched_total []",
		"metric sim_cycles_total []",
		"metric sim_launches_total []",
		"metric sim_throughput_cycles_per_second []",
		"metric sim_wall_seconds_total []",
		"span 1/1 cupti cached",
		"span 1/1 cupti flush",
		"span 1/1 cupti native",
		"span 1/1 cupti pass",
		"span 1/1 cupti profile",
		"span 1/1 session profile",
		"span 1/1 sim launch",
		"span 1/2 core analyze",
		"span 1/2 core timeline",
		"span 2/0 sim sgemm_kernel",
	}
	for _, s := range want {
		if !emitted[s] {
			t.Errorf("no longer emitted: %q", s)
		}
		delete(emitted, s)
	}
	var extra []string
	for s := range emitted {
		extra = append(extra, s)
	}
	sort.Strings(extra)
	for _, s := range extra {
		t.Errorf("newly emitted: %q", s)
	}
}

// checkMetricTable fails for every metric family in prom, a Prometheus
// exposition, that README.md's Observability metric table does not list.
func checkMetricTable(t *testing.T, prom string) {
	t.Helper()
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(readme), "\n**Metrics**")
	_, table, _ = strings.Cut(table, "\n|")
	table, _, _ = strings.Cut(table, "\n\n")
	for _, line := range strings.Split(prom, "\n") {
		typed, ok := strings.CutPrefix(line, "# TYPE ")
		family, _, _ := strings.Cut(typed, " ")
		if ok && !strings.Contains(table, "`"+family+"`") && !strings.Contains(table, "`"+family+"{") {
			t.Errorf("README.md's metric table does not list %s", family)
		}
	}
}
