package main

// metricDef declares one metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees; README.md has the definitions.
// All are medians over the timed sweeps of an untraced run. The time metrics
// carry the widest bound the driver allows: on the 2-CPU host this was sized
// on, runs of the same binary minutes apart differ by 10-20 % (README.md,
// Noise). The allocation metrics repeat to 0.2 % and carry the precision.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sweep_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.05},
	{"mallocs_k", "k", "lower", 0.05},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p80_ms", "ms", "lower", 0.25},
}

// perLayer is what a traced run reports, one group per package. Counts of
// simulated work ("count", "ratio" of simulated events) repeat exactly from
// run to run; host times do not.
var perLayer = []metricDef{
	// workloads: App.Execute minus the launches it makes.
	{Name: "workloads.build_ms", Unit: "ms", Better: "lower"},
	{Name: "workloads.launches", Unit: "count", Better: "lower"},
	{Name: "workloads.input_mb", Unit: "MB", Better: "lower"},

	// sim: native Device.Launch, once per launch of a sweep.
	{Name: "sim.device_new_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.clone_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.launch_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.cycles", Unit: "count", Better: "lower"},
	{Name: "sim.ticks", Unit: "count", Better: "lower"},
	{Name: "sim.ff_skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sim.ns_per_tick", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_warp_inst", Unit: "ns", Better: "lower"},
	{Name: "sim.warp_inst_per_s", Unit: "1/s", Better: "higher"},

	// sm: simulated instruction stream of the native launches.
	{Name: "sm.warp_insts", Unit: "count", Better: "lower"},
	{Name: "sm.inst_issued", Unit: "count", Better: "lower"},
	{Name: "sm.issue_replay_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sm.ipc", Unit: "inst/cycle", Better: "higher"},
	{Name: "sm.mallocs_per_kwarp_inst", Unit: "count", Better: "lower"},

	// mem: simulated memory traffic, and the host cost of saving, restoring
	// and hashing device memory once per launch.
	{Name: "mem.global_loads", Unit: "count", Better: "lower"},
	{Name: "mem.global_stores", Unit: "count", Better: "lower"},
	{Name: "mem.sectors", Unit: "count", Better: "lower"},
	{Name: "mem.l1_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_misses", Unit: "count", Better: "lower"},
	{Name: "mem.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "mem.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "mem.hash_ms", Unit: "ms", Better: "lower"},
	{Name: "mem.snapshot_mb", Unit: "MB", Better: "lower"},

	// pmu: counter scheduling.
	{Name: "pmu.passes", Unit: "count", Better: "lower"},
	{Name: "pmu.counters_requested", Unit: "count", Better: "lower"},
	{Name: "pmu.schedule_us", Unit: "us", Better: "lower"},

	// cupti: the replay engine around the native launches.
	{Name: "cupti.profile_ms", Unit: "ms", Better: "lower"},
	{Name: "cupti.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cupti.replay_sim_pct", Unit: "%", Better: "higher"},
	{Name: "cupti.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "cupti.passes_run", Unit: "count", Better: "lower"},
	{Name: "cupti.cache_hits", Unit: "count", Better: "higher"},
	{Name: "cupti.cache_misses", Unit: "count", Better: "lower"},
	{Name: "cupti.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cupti.fanout_speedup", Unit: "x", Better: "higher"},
	{Name: "cupti.overhead_x", Unit: "x", Better: "lower"},

	// metrics and core: analysis of the collected counters.
	{Name: "metrics.eval_us", Unit: "us", Better: "lower"},
	{Name: "core.analyze_us", Unit: "us", Better: "lower"},
	{Name: "core.aggregate_us", Unit: "us", Better: "lower"},
	{Name: "core.analyses", Unit: "count", Better: "lower"},

	// serve: report rendering everywhere; queue, HTTP and store on daemon.
	{Name: "serve.report_us", Unit: "us", Better: "lower"},
	{Name: "serve.report_kb", Unit: "KB", Better: "lower"},
	{Name: "serve.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.client_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stub_job_us", Unit: "us", Better: "lower"},
	{Name: "serve.http_requests_per_job", Unit: "count", Better: "lower"},
	{Name: "serve.repeat_speedup", Unit: "x", Better: "higher"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},

	// obs: the cost of the profiler's own tracer and registry when attached.
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.trace_events", Unit: "count", Better: "lower"},

	// check and the harness's own tracing.
	{Name: "check.golden_mismatches", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.coverage_min_pct", Unit: "%", Better: "higher"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},

	// process and host: informational, never gated.
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.live_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.chase_ns", Unit: "ns", Better: "lower"},
	{Name: "host.burst_ms", Unit: "ms", Better: "lower"},
	{Name: "host.ncpu", Unit: "count", Better: "higher"},
	{Name: "host.go_version", Unit: "version", Better: "higher"},
}
