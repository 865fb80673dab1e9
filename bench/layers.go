package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gputopdown"
	"gputopdown/internal/check"
	"gputopdown/internal/core"
	"gputopdown/internal/cupti"
	"gputopdown/internal/kernel"
	"gputopdown/internal/metrics"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sim"
	"gputopdown/internal/sm"
)

// This file is the traced run: it repeats from outside, call by call, what
// Profiler.ProfileApp does inside (profileOn in ../topdown.go), wrapping
// each call into a layer in a span. Because the sequence is re-implemented
// here, every report it renders is verified like any other, so a drift from
// the root package fails the run.

// launchTrace is one kernel launch as the seam-driven sweep saw it.
type launchTrace struct {
	profile time.Duration // Session.ProfileCtx
	// passesRun is how many passes were simulated: 0 for a cache hit.
	passesRun int
}

// opTrace is one op of the seam-driven sweep.
type opTrace struct {
	b        *boundOp
	wall     time.Duration
	launches []launchTrace

	deviceNew, schedule, metricsEval time.Duration
	analyze, aggregate, report       time.Duration

	passes, requested           int
	cacheHits, cacheMisses      uint64
	nativeCycles, profiledCycle uint64
	reportBytes                 int
}

// seamOp profiles one op through the layer seams and verifies its report.
func seamOp(ctx context.Context, rec *recorder, h *harness, b *boundOp) (*opTrace, error) {
	const lane = 1
	ot := &opTrace{b: b}
	root := rec.begin(0, "bench", "op", b.id, lane)
	defer func() { ot.wall = rec.end(root) }()
	call := func(parent int, layer, name string, f func() error) (time.Duration, error) {
		s := rec.begin(parent, layer, name, b.id, lane)
		err := f()
		return rec.end(s), err
	}

	var dev *sim.Device
	ot.deviceNew, _ = call(root, "sim", "NewDeviceMem", func() error {
		dev = sim.NewDeviceMem(b.spec, sim.DefaultMemBytes)
		return nil
	})

	var analyzer *core.Analyzer
	var request []pmu.CounterID
	if _, err := call(root, "core", "NewAnalyzer+CounterRequest", func() (err error) {
		analyzer = core.NewAnalyzer(b.spec, core.Level3)
		request, err = analyzer.CounterRequest()
		return err
	}); err != nil {
		return nil, err
	}
	ot.requested = len(request)

	// NewSession builds its schedule internally; this call times the same
	// computation on its own.
	var err error
	if ot.schedule, err = call(root, "pmu", "BuildSchedule", func() error {
		_, err := pmu.BuildSchedule(request)
		return err
	}); err != nil {
		return nil, err
	}

	var sess *cupti.Session
	var cache *cupti.ReplayCache
	if _, err := call(root, "cupti", "NewSession", func() (err error) {
		if sess, err = cupti.NewSession(dev, request, cupti.ModeSMPC); err != nil {
			return err
		}
		if b.Workers > 1 {
			sess.SetWorkers(b.Workers)
		}
		if b.Cache {
			cache = cupti.NewReplayCache(0)
			sess.SetCache(cache)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	ot.passes = sess.NumPasses()

	var kernels []gputopdown.KernelResult
	names := analyzer.MetricNames()
	exec := rec.begin(root, "workloads", "App.Execute", b.id, lane)
	err = b.app.Execute(dev, func(l *kernel.Launch) error {
		var r *cupti.KernelRecord
		took, err := call(exec, "cupti", "Session.ProfileCtx", func() (err error) {
			r, err = sess.ProfileCtx(ctx, l)
			return err
		})
		if err != nil {
			return err
		}
		lt := launchTrace{profile: took, passesRun: r.Passes}
		if r.Cached {
			lt.passesRun = 0
		}
		ot.launches = append(ot.launches, lt)

		// Analyze evaluates these metrics itself; this call times the
		// evaluation alone.
		took, err = call(exec, "metrics", "Registry.Eval", func() error {
			mctx := &metrics.Context{Spec: b.spec, Values: r.Values}
			for _, n := range names {
				if _, err := analyzer.Registry.Eval(n, mctx); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ot.metricsEval += took

		var a *core.Analysis
		took, _ = call(exec, "core", "Analyzer.Analyze", func() error {
			a = analyzer.Analyze(r.Kernel, r.Values)
			a.Weight = float64(r.Cycles)
			return nil
		})
		ot.analyze += took
		kernels = append(kernels, gputopdown.KernelResult{
			Kernel: r.Kernel, Invocation: r.Invocation, Cycles: r.Cycles, Analysis: a,
		})
		return nil
	})
	rec.end(exec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.id, err)
	}

	res := &gputopdown.AppResult{
		App: b.app.Name, Suite: b.app.Suite, GPU: b.spec.Name,
		Kernels: kernels, Passes: ot.passes,
	}
	ot.aggregate, _ = call(root, "core", "Aggregate", func() error {
		analyses := make([]*core.Analysis, len(kernels))
		for i := range kernels {
			analyses[i] = kernels[i].Analysis
		}
		res.Aggregate = core.Aggregate(b.app.Name, analyses)
		return nil
	})
	res.NativeCycles, res.ProfiledCycles = sess.Overhead()
	ot.nativeCycles, ot.profiledCycle = res.NativeCycles, res.ProfiledCycles
	if cache != nil {
		ot.cacheHits, ot.cacheMisses = cache.Stats()
	}

	var data []byte
	if ot.report, err = call(root, "serve", "AppResult.Report+ReportJSON", func() (err error) {
		data, err = check.ReportJSON(res.Report())
		return err
	}); err != nil {
		return nil, fmt.Errorf("%s: render report: %w", b.id, err)
	}
	ot.reportBytes = len(data)

	if _, err := call(root, "check", "verify", func() error {
		if b.Autotune && ot.cacheHits != autotuneKernels-2 {
			return fmt.Errorf("%s: %d cache hits, want %d", b.id, ot.cacheHits, autotuneKernels-2)
		}
		return h.verify(b, data, len(kernels))
	}); err != nil {
		return nil, err
	}
	return ot, nil
}

// nativeLaunch is one kernel launch of the native pass: what sits beneath
// Session.ProfileCtx, timed at the sim and mem seams. The launch is made
// twice (see nativeOp): flush and mallocs are the mean of the two.
type nativeLaunch struct {
	// first is the launch on the state the app left, as replay pass 0 runs;
	// replayed is the launch after a restore, as every later pass runs.
	first, replayed, flush  time.Duration
	snapshot, hash, restore time.Duration
	snapshotBytes           int
	mallocs, ticks, cycles  uint64
	counters                sm.Counters
}

// timedLaunch flushes the caches and launches natively, as one replay pass
// does.
func timedLaunch(rec *recorder, parent int, b *boundOp, dev *sim.Device, l *kernel.Launch) (nativeLaunch, error) {
	var nl nativeLaunch
	s := rec.begin(parent, "sim", "FlushCaches", b.id, 1)
	dev.FlushCaches()
	nl.flush = rec.end(s)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s = rec.begin(parent, "sim", "Device.Launch", b.id, 1)
	res, err := dev.Launch(l)
	nl.first = rec.end(s)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nl, fmt.Errorf("%s: native launch: %w", b.id, err)
	}
	nl.mallocs = after.Mallocs - before.Mallocs
	nl.ticks = dev.LastLaunchTicks()
	nl.cycles = res.Cycles
	nl.counters = res.Counters
	return nl, nil
}

// nativeOp runs the op's launches without the profiler. Each launch is
// bracketed the way the replay engine brackets its passes: snapshot and hash
// before, then flush + launch (pass 0), restore, flush + launch again (any
// later pass) — which leaves memory in the post-kernel state the app expects.
func nativeOp(rec *recorder, b *boundOp) ([]nativeLaunch, time.Duration, error) {
	const lane = 1
	root := rec.begin(0, "bench", "native-op", b.id, lane)
	defer rec.end(root)
	dev := sim.NewDeviceMem(b.spec, sim.DefaultMemBytes)
	var launches []nativeLaunch
	exec := rec.begin(root, "workloads", "App.Execute", b.id, lane)
	err := b.app.Execute(dev, func(l *kernel.Launch) error {
		s := rec.begin(exec, "mem", "Storage.Snapshot", b.id, lane)
		snap := dev.Storage.Snapshot()
		snapshot := rec.end(s)
		s = rec.begin(exec, "mem", "Storage.HashAllocated", b.id, lane)
		dev.Storage.HashAllocated()
		hash := rec.end(s)

		first, err := timedLaunch(rec, exec, b, dev, l)
		if err != nil {
			return err
		}
		s = rec.begin(exec, "mem", "Storage.Restore", b.id, lane)
		dev.Storage.Restore(snap)
		restore := rec.end(s)
		second, err := timedLaunch(rec, exec, b, dev, l)
		if err != nil {
			return err
		}
		if first.cycles != second.cycles || first.counters != second.counters {
			return fmt.Errorf("%s: %s: replayed launch diverged from the first", b.id, l.Program.Name)
		}
		nl := first
		nl.replayed = second.first
		nl.flush = (first.flush + second.flush) / 2
		nl.mallocs = (first.mallocs + second.mallocs) / 2
		nl.snapshot, nl.hash, nl.restore, nl.snapshotBytes = snapshot, hash, restore, len(snap)
		launches = append(launches, nl)
		return nil
	})
	rec.end(exec)
	if err != nil {
		return nil, 0, err
	}
	s := rec.begin(root, "sim", "Device.Clone", b.id, lane)
	dev.Clone()
	return launches, rec.end(s), nil
}

// baselineSweeps is how many untraced timed sweeps a traced run takes as the
// base of its overhead figures.
const baselineSweeps = 2

// stubJobs is how many round trips the canned-report server probe makes.
const stubJobs = 40

// runTraced is a traced run. It takes an untraced baseline the end-to-end way,
// then drives the ops through the seams (seamOp), natively (nativeOp) and with
// the profiler's own observer attached, and reports the per-layer metrics.
// It does a fixed amount of work; cfg.seconds does not apply.
func runTraced(ctx context.Context, cfg config) (_ *detail, err error) {
	host := probeHost()
	rng := rand.New(rand.NewSource(cfg.seed))
	d := newDetail(cfg, host, true)
	rec := newRecorder()
	var t tally
	m := map[string]float64{}

	// The traced run reports wall times as measured; the bursts that follow
	// the ops of its untraced baseline say how fast the host was then.
	var bursts hostProbe
	h, first, _, err := setUp(ctx, cfg.w, cfg.goldenDir, map[string][]byte{}, rng, &bursts)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}()
	t.add(first)
	var base []sweepResult
	for i := 0; i < baselineSweeps; i++ {
		s := h.sweep(ctx, rng, nil)
		t.add(s)
		base = append(base, s)
	}
	d.recordSweeps(base)
	h.probe = nil
	baseWall := median(d.Samples["sweep_raw_s"])

	// libraryWall is the untraced wall time of one library sweep over the
	// ops, the base for the overhead of the profiler's own observer.
	libraryWall := baseWall
	if cfg.w.Daemon {
		requests := h.daemon.transport.requests.Load()
		traced := h.sweep(ctx, rng, rec)
		requests = h.daemon.transport.requests.Load() - requests
		t.add(traced)
		m["trace.overhead_pct"] = 100 * (traced.Wall.Seconds() - baseWall) / baseWall
		if err := serveMetrics(ctx, m, h, first, base, traced, requests); err != nil {
			return nil, err
		}
		lib := h.librarySweep(ctx, rng)
		t.add(lib)
		libraryWall = lib.Wall.Seconds()
	} else {
		for _, n := range []string{"serve.queue_wait_ms", "serve.run_ms_p50", "serve.client_overhead_ms",
			"serve.stub_job_us", "serve.http_requests_per_job", "serve.repeat_speedup", "serve.rejected"} {
			m[n] = 0
		}
	}

	// The seam-driven sweep, in a seeded order like any other sweep. Each op's
	// native pass follows it at once, so that the two are taken in the same
	// host phase: cupti.self_ms is the difference between them.
	traces := make([]*opTrace, len(h.ops))
	natives := make([][]nativeLaunch, len(h.ops))
	var seamWall, clones []float64
	for _, i := range rng.Perm(len(h.ops)) {
		b := h.ops[i]
		t.attempted += 2
		ot, err := seamOp(ctx, rec, h, b)
		if err != nil {
			t.failures = append(t.failures, err)
			continue
		}
		launches, clone, err := nativeOp(rec, b)
		if err != nil {
			t.failures = append(t.failures, err)
			continue
		}
		if len(launches) != len(ot.launches) {
			t.failures = append(t.failures, fmt.Errorf("%s: %d native launches, %d profiled", b.id, len(launches), len(ot.launches)))
			continue
		}
		traces[i], natives[i] = ot, launches
		seamWall = append(seamWall, ot.wall.Seconds())
		clones = append(clones, ms(clone))
	}
	if !cfg.w.Daemon {
		m["trace.overhead_pct"] = 100 * (sum(seamWall) - baseWall) / baseWall
	}

	tracer, registry := gputopdown.NewTracer(), gputopdown.NewMetricsRegistry()
	observed := h.librarySweep(ctx, rng, gputopdown.WithObserver(tracer, registry))
	t.add(observed)
	m["obs.trace_overhead_pct"] = 100 * (observed.Wall.Seconds() - libraryWall) / libraryWall
	m["obs.trace_events"] = float64(tracer.Len())

	spans := rec.snapshot()
	if len(t.failures) == 0 {
		layerMetrics(m, traces, natives, spans)
	} else {
		// A failed op leaves the sums below without its share; report the
		// failure and no misleading layer numbers.
		for _, def := range perLayer {
			if _, ok := m[def.Name]; !ok {
				m[def.Name] = 0
			}
		}
	}
	m["sim.clone_ms"] = ratio(sum(clones), float64(len(clones)))
	m["check.golden_mismatches"] = float64(len(t.failures))
	m["trace.spans"] = float64(len(spans))

	var mem runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem)
	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.live_heap_mb"] = float64(mem.HeapAlloc) / 1e6
	m["process.gc_cycles"] = float64(mem.NumGC)
	m["process.gc_pause_ms"] = float64(mem.PauseTotalNs) / 1e6
	m["host.chase_ns"] = host.ChaseNS
	m["host.burst_ms"] = median(bursts.burstsMS)
	m["host.ncpu"] = float64(host.NCPU)
	m["host.go_version"] = goVersionNumber(host.GoVersion)

	if err := writeChromeTrace(cfg.traceOut, spans); err != nil {
		return nil, err
	}
	d.TraceFile = cfg.traceOut
	if d.Result, err = t.finish(perLayer, m); err != nil {
		return nil, err
	}
	for _, f := range t.failures {
		d.Failures = append(d.Failures, f.Error())
	}
	return d, nil
}

// layerMetrics fills in the metrics of the layers beneath the root package,
// each summed over one sweep of the ops.
func layerMetrics(m map[string]float64, traces []*opTrace, natives [][]nativeLaunch, spans []span) {
	var (
		launches, analyses, passesRun                float64
		deviceNew, schedule, eval, analyze, agg, rep time.Duration
		passes, requested, reportBytes               float64
		hits, misses, nativeCyc, profiledCyc         float64
		inputBytes                                   float64

		launch, snapshot, restore, hash       time.Duration
		snapshotBytes, mallocs, ticks, cycles float64
		c                                     sm.Counters

		profile                      time.Duration
		seqProfile, seqSim, seqWall  time.Duration // ops replaying sequentially
		fanProfile, fanSim, cuptiFls time.Duration // ops fanning passes out
	)
	for i, ot := range traces {
		deviceNew += ot.deviceNew
		schedule += ot.schedule
		eval += ot.metricsEval
		analyze += ot.analyze
		agg += ot.aggregate
		rep += ot.report
		passes += float64(ot.passes)
		requested += float64(ot.requested)
		reportBytes += float64(ot.reportBytes)
		hits += float64(ot.cacheHits)
		misses += float64(ot.cacheMisses)
		nativeCyc += float64(ot.nativeCycles)
		profiledCyc += float64(ot.profiledCycle)
		launches += float64(len(ot.launches))
		analyses += float64(len(ot.launches)) + 1 // one per kernel, one aggregate

		maxSnap := 0
		for k, nl := range natives[i] {
			launch += (nl.first + nl.replayed) / 2
			snapshot += nl.snapshot
			restore += nl.restore
			hash += nl.hash
			snapshotBytes += float64(nl.snapshotBytes)
			if nl.snapshotBytes > maxSnap {
				maxSnap = nl.snapshotBytes
			}
			mallocs += float64(nl.mallocs)
			ticks += float64(nl.ticks)
			cycles += float64(nl.cycles)
			c.Add(&nl.counters)

			// The native pass makes the launches the seam-driven sweep made,
			// in the same order, so launch k pairs with launch k.
			lt := ot.launches[k]
			profile += lt.profile
			passesRun += float64(lt.passesRun)
			cuptiFls += time.Duration(lt.passesRun) * nl.flush
			// What the passes the session simulated cost natively.
			var sim time.Duration
			if lt.passesRun > 0 {
				sim = nl.first + time.Duration(lt.passesRun-1)*nl.replayed
			}
			if ot.b.Workers > 1 {
				fanProfile += lt.profile
				fanSim += sim
			} else {
				seqProfile += lt.profile
				seqSim += sim
			}
		}
		if ot.b.Workers <= 1 {
			seqWall += ot.wall
		}
		inputBytes += float64(maxSnap)
	}
	nOps := float64(len(traces))
	byLayer, coverage := layerSelf(spans, "op")

	m["workloads.build_ms"] = ms(byLayer["workloads"])
	m["workloads.launches"] = launches
	m["workloads.input_mb"] = inputBytes / 1e6

	m["sim.device_new_ms"] = ms(deviceNew)
	m["sim.launch_ms"] = ms(launch)
	m["sim.cycles"] = cycles
	m["sim.ticks"] = ticks
	m["sim.ff_skip_ratio"] = 1 - ratio(ticks, float64(c.ActiveCycles))
	m["sim.ns_per_tick"] = ratio(float64(launch.Nanoseconds()), ticks)
	m["sim.ns_per_warp_inst"] = ratio(float64(launch.Nanoseconds()), float64(c.InstExecuted))
	m["sim.warp_inst_per_s"] = ratio(float64(c.InstExecuted), launch.Seconds())

	m["sm.warp_insts"] = float64(c.InstExecuted)
	m["sm.inst_issued"] = float64(c.InstIssued)
	m["sm.issue_replay_ratio"] = ratio(float64(c.InstIssued), float64(c.InstExecuted))
	m["sm.ipc"] = ratio(float64(c.InstExecuted), cycles)
	m["sm.mallocs_per_kwarp_inst"] = ratio(1000*mallocs, float64(c.InstExecuted))

	m["mem.global_loads"] = float64(c.GlobalLoads)
	m["mem.global_stores"] = float64(c.GlobalStores)
	m["mem.sectors"] = float64(c.LoadSectors + c.StoreSectors)
	m["mem.l1_hit_ratio"] = ratio(float64(c.L1Hits), float64(c.L1Hits+c.L1Misses))
	m["mem.l2_hit_ratio"] = ratio(float64(c.L2Hits), float64(c.L2Hits+c.L2Misses))
	m["mem.l2_misses"] = float64(c.L2Misses)
	m["mem.snapshot_ms"] = ms(snapshot)
	m["mem.restore_ms"] = ms(restore)
	m["mem.hash_ms"] = ms(hash)
	m["mem.snapshot_mb"] = snapshotBytes / 1e6

	m["pmu.passes"] = ratio(passes, nOps)
	m["pmu.counters_requested"] = ratio(requested, nOps)
	m["pmu.schedule_us"] = us(schedule)

	m["cupti.profile_ms"] = ms(profile)
	m["cupti.self_ms"] = ms(seqProfile - seqSim)
	m["cupti.replay_sim_pct"] = 100 * ratio(float64(seqSim), float64(seqWall))
	m["cupti.flush_ms"] = ms(cuptiFls)
	m["cupti.passes_run"] = passesRun
	m["cupti.cache_hits"] = hits
	m["cupti.cache_misses"] = misses
	m["cupti.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["cupti.fanout_speedup"] = ratio(float64(fanSim), float64(fanProfile))
	m["cupti.overhead_x"] = ratio(profiledCyc, nativeCyc)

	m["metrics.eval_us"] = us(eval)
	m["core.analyze_us"] = us(analyze)
	m["core.aggregate_us"] = us(agg)
	m["core.analyses"] = analyses

	m["serve.report_us"] = us(rep)
	m["serve.report_kb"] = reportBytes / 1e3

	m["trace.coverage_min_pct"] = 100 * coverage
}

// serveMetrics fills in the daemon's own layer: queue, store and HTTP as the
// job timestamps and the clients saw them on the traced sweep.
func serveMetrics(ctx context.Context, m map[string]float64, h *harness, first sweepResult, base []sweepResult, traced sweepResult, tracedRequests int64) error {
	var queue, run, overhead []float64
	for _, j := range traced.Jobs {
		queue = append(queue, ms(j.QueueWait))
		run = append(run, ms(j.Run))
		overhead = append(overhead, ms(j.Latency-j.QueueWait-j.Run))
	}
	m["serve.queue_wait_ms"] = ratio(sum(queue), float64(len(queue)))
	m["serve.run_ms_p50"] = median(run)
	m["serve.client_overhead_ms"] = median(overhead)

	// A spec's first job ran during set-up; its repeats ran in the sweeps.
	later := map[*boundOp][]float64{}
	for _, s := range append(append([]sweepResult(nil), base...), traced) {
		for _, j := range s.Jobs {
			later[j.Op] = append(later[j.Op], ms(j.Run))
		}
	}
	var speedups []float64
	for _, j := range first.Jobs {
		if j.Op.Cache && len(later[j.Op]) > 0 {
			speedups = append(speedups, ratio(ms(j.Run), median(later[j.Op])))
		}
	}
	m["serve.repeat_speedup"] = median(speedups)

	m["serve.http_requests_per_job"] = ratio(float64(tracedRequests), float64(traced.Attempted))
	m["serve.rejected"] = float64(h.daemon.transport.rejected.Load())

	stub, err := stubProbe(ctx, h)
	if err != nil {
		return err
	}
	m["serve.stub_job_us"] = stub
	return nil
}

// stubProbe measures the serve layer with the profiling taken out: the median
// round trip, in microseconds, against a server whose Runner returns a canned
// report at once.
func stubProbe(ctx context.Context, h *harness) (float64, error) {
	canned := &gputopdown.JobReport{APIVersion: gputopdown.ServeAPIVersion, App: "stub", Suite: "stub", GPU: defaultGPU}
	d, err := startDaemon(func(context.Context, *gputopdown.JobRequest) (*gputopdown.JobReport, error) {
		return canned, nil
	})
	if err != nil {
		return 0, err
	}
	trip := func(c *gputopdown.JobClient) error {
		st, err := c.Submit(ctx, h.ops[0].request())
		if err != nil {
			return err
		}
		if _, err := c.Wait(ctx, st.ID, pollInterval); err != nil {
			return err
		}
		_, err = c.Report(ctx, st.ID)
		return err
	}
	client := d.client()
	var trips []float64
	for i := 0; i < stubJobs; i++ {
		start := time.Now()
		if err := trip(client); err != nil {
			d.stop() //nolint:errcheck // already failing
			return 0, fmt.Errorf("stub probe: %w", err)
		}
		trips = append(trips, us(time.Since(start)))
	}
	return median(trips), d.stop()
}
