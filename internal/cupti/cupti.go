// Package cupti is the profiling middleware between the PMU and the
// analyzer, mirroring NVIDIA's CUDA Profiling Tools Interface: a Session
// schedules a counter request onto passes (internal/pmu), accounts for one
// replay of every kernel launch per pass, and merges the per-pass readings
// into one record per kernel invocation.
//
// Replay accounting. Real CUPTI re-executes the kernel once per pass with a
// cache flush and a memory restore in between; that is what makes profiling
// expensive (a level-3 Top-Down counter set needs 8 passes, each paying a
// flush whose cost grows with the working set — the ~13x overhead the paper
// measures in Fig. 13, §V.E). The simulator is deterministic, so every one
// of those replays would return the same counters. The session therefore
// simulates each launch once (one cache flush, one launch), merges every
// scheduled pass from that one counter set, and charges each pass
// cycles + flush cycles to the overhead accounting. The restore → flush →
// launch × N replay it stands for lives on as a test-side oracle
// (TestDeterminismReplayOracle), which proves the two equal on every
// suite application.
//
// One path. ProfileCtx decides once what an invocation is — run natively
// because sampling skips it (SetSampling), served from the result cache, or
// simulated — launches at one site, flushing first only for a profiled
// launch, and books all three kinds through one accounting step.
//
// Result cache (SetCache): byte-identical invocations — same device model,
// program fingerprint, launch configuration, memory hash and constant-bank
// hash — skip even that one simulation, re-applying the recorded counters,
// the memory effects and the launch parameters while still charging the
// full simulated replay+flush cost. A sampling session does not consult the
// cache (see SetCache).
//
// A simulation failure is a KernelError with Pass 0 (Pass -1 for a native
// run); cancellation is polled before the invocation and inside the one
// LaunchCtx.
package cupti

import (
	"context"
	"fmt"
	"time"

	"gputopdown/internal/kernel"
	"gputopdown/internal/obs"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sim"
	"gputopdown/internal/sm"
)

// Mode selects the collection mechanism (paper §II.A).
type Mode uint8

const (
	// ModeSMPC collects SM counters from every SM on the device.
	ModeSMPC Mode = iota
	// ModeHWPM can observe any unit but only a subgroup of the hardware; we
	// model it as sampling a single SM and extrapolating.
	ModeHWPM
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeHWPM {
		return "HWPM"
	}
	return "SMPC"
}

// passSetupCycles is the fixed driver/PMU reconfiguration cost per pass.
const passSetupCycles = 2000

// KernelRecord is the profile of one kernel invocation.
type KernelRecord struct {
	Kernel string
	// Invocation is the per-kernel-name invocation index (0-based).
	Invocation int
	// Cycles is the kernel's native duration (identical across passes, by
	// determinism).
	Cycles uint64
	// Passes is how many replays were needed (1 for skipped samples).
	Passes int
	// Values holds the merged counter readings (device aggregate for SMPC,
	// single-SM sample scaled to the device for HWPM). For an unsampled
	// invocation under SetSampling these are the most recent sampled values.
	Values pmu.Values
	// Sampled is false when this invocation ran natively under sampling and
	// inherited another invocation's values.
	Sampled bool
	// Cached is true when the invocation was served from the replay result
	// cache instead of being re-simulated.
	Cached bool
	// SMsUsed is how many SMs participated.
	SMsUsed int
}

// Session profiles kernel launches against a fixed counter request.
type Session struct {
	dev     *sim.Device
	sched   *pmu.Schedule
	schedFP uint64
	mode    Mode

	// cache, when non-nil, memoizes byte-identical invocations; hits and
	// misses count this session's lookups in it.
	cache        *ReplayCache
	hits, misses uint64

	// sampleEvery > 1 enables the paper's §VII mitigation: only every n-th
	// invocation of a kernel is fully replayed; the rest run natively once
	// and inherit the most recent sampled counter values.
	sampleEvery int
	lastSampled map[string]pmu.Values

	invocations map[string]int

	// Overhead accounting (simulated device cycles).
	nativeCycles   uint64
	profiledCycles uint64

	// Observability (nil/disabled by default; see SetObserver). Handles are
	// created once so the replay hot path is allocation-free when disabled.
	tracer     *obs.Tracer
	obsOn      bool
	mPasses    *obs.Counter
	mFlushes   *obs.Counter
	mFlushCyc  *obs.Counter
	mNativeCyc *obs.Counter
	mProfCyc   *obs.Counter
	mSampled   *obs.Counter
	mSkipped   *obs.Counter
	mCacheHits *obs.Counter
	mCacheMiss *obs.Counter
	mPassWall  *obs.Counter
	hPassWall  *obs.Histogram
	gOverhead  *obs.Gauge
	gPassesPK  *obs.Gauge
	gCacheSize *obs.Gauge

	// Structured logging (nil/disabled by default; see SetLogger). Nil-safe,
	// so the hot path guards only argument construction.
	log      *obs.Logger // component "cupti"
	cacheLog *obs.Logger // component "cache"
}

// NewSession builds a profiling session for the requested counters.
func NewSession(dev *sim.Device, request []pmu.CounterID, mode Mode) (*Session, error) {
	sched, err := pmu.BuildSchedule(request)
	if err != nil {
		return nil, err
	}
	return &Session{
		dev:         dev,
		sched:       sched,
		schedFP:     sched.Fingerprint(),
		mode:        mode,
		sampleEvery: 1,
		lastSampled: map[string]pmu.Values{},
		invocations: map[string]int{},
	}, nil
}

// SetObserver attaches an execution tracer and metrics registry to the
// session; the device it profiles on is observed through its own
// sim.Device.SetObserver. Either may be nil: a tracer-only observer records
// spans without metrics, a registry-only observer the reverse. The session
// emits spans for each profiled kernel, its one simulated pass and the cache
// flush before it, and maintains the profiler self-metrics — including the
// live replay_overhead_ratio that reproduces the paper's Fig. 13 accounting
// from instrumentation rather than post-hoc arithmetic.
func (s *Session) SetObserver(tr *obs.Tracer, reg *obs.Registry) {
	s.tracer = tr
	s.obsOn = tr != nil || reg != nil
	if reg == nil {
		// Explicitly guard the handle creation: a tracer-only observer must
		// not depend on nil-receiver forgiveness in the registry.
		s.mPasses, s.mFlushes, s.mFlushCyc = nil, nil, nil
		s.mNativeCyc, s.mProfCyc = nil, nil
		s.mSampled, s.mSkipped = nil, nil
		s.mCacheHits, s.mCacheMiss = nil, nil
		s.mPassWall, s.hPassWall = nil, nil
		s.gOverhead, s.gPassesPK, s.gCacheSize = nil, nil, nil
		return
	}
	s.mPasses = reg.Counter("profiler_passes_total",
		"Replay passes accounted across all profiled kernel invocations.", nil)
	s.mFlushes = reg.Counter("profiler_cache_flushes_total",
		"Device cache flushes performed before simulated launches.", nil)
	s.mFlushCyc = reg.Counter("profiler_flush_cycles_total",
		"Simulated cycles charged to inter-pass cache/memory flushes.", nil)
	s.mNativeCyc = reg.Counter("profiler_native_cycles_total",
		"Simulated cycles the application would take without profiling.", nil)
	s.mProfCyc = reg.Counter("profiler_profiled_cycles_total",
		"Simulated cycles including every replay pass and flush.", nil)
	s.mSampled = reg.Counter("profiler_kernels_profiled_total",
		"Kernel invocations fully profiled via multi-pass replay.", nil)
	s.mSkipped = reg.Counter("profiler_kernels_skipped_total",
		"Kernel invocations run natively under sampling (values inherited).", nil)
	s.mCacheHits = reg.Counter("profiler_replay_cache_hits_total",
		"Kernel invocations served from the replay result cache.", nil)
	s.mCacheMiss = reg.Counter("profiler_replay_cache_misses_total",
		"Kernel invocations that missed the replay result cache.", nil)
	s.mPassWall = reg.Counter("profiler_pass_wall_seconds_total",
		"Host wall-clock seconds spent simulating profiled launches.", nil)
	s.hPassWall = reg.Histogram("profiler_pass_wall_seconds",
		"Wall-clock duration of each profiled launch's one simulated pass.", nil, nil)
	s.gOverhead = reg.Gauge("profiler_replay_overhead_ratio",
		"Live profiled/native simulated-cycle ratio (the paper's Fig. 13).", nil)
	s.gPassesPK = reg.Gauge("profiler_passes_per_kernel",
		"Replay passes the scheduled counter set requires per kernel.", nil)
	s.gCacheSize = reg.Gauge("profiler_replay_cache_entries",
		"Invocations currently memoized in the replay result cache.", nil)
	s.gPassesPK.Set(float64(s.sched.NumPasses()))
}

// SetLogger attaches a structured logger to the session: pass starts/stops
// and schedule decisions under component "cupti", replay-cache hits/misses
// under component "cache". The device logs through its own
// sim.Device.SetLogger. A nil logger detaches both components and restores
// the zero-cost path.
func (s *Session) SetLogger(l *obs.Logger) {
	s.log = l.Component("cupti")
	s.cacheLog = l.Component("cache")
	if s.log.On(obs.LevelDebug) {
		s.log.Debug("session configured",
			"mode", s.mode.String(), "passes", s.sched.NumPasses(),
			"sample_every", s.sampleEvery)
	}
}

// SetCache attaches a replay result cache (nil detaches). The cache may be
// shared by many sessions, including concurrently and on different device
// models. A session that samples (SetSampling with n > 1) does not consult
// it: a hit restores memory but not the caches a simulated launch leaves
// behind, and under sampling the next invocation runs natively on exactly
// those caches, without a flush.
func (s *Session) SetCache(c *ReplayCache) { s.cache = c }

// SetSampling makes the session fully profile only every n-th invocation of
// each kernel; the others execute once, natively, and reuse the most recent
// sampled values. This is the overhead mitigation the paper proposes for
// applications with very large kernel-invocation counts (§V.E, §VII). n < 1
// is treated as 1 (profile everything). With n > 1 the result cache is not
// consulted (see SetCache).
func (s *Session) SetSampling(n int) {
	if n < 1 {
		n = 1
	}
	s.sampleEvery = n
}

// CacheStats returns how many of this session's invocations the replay
// cache served and how many it missed; a cache shared with other sessions
// counts theirs too (ReplayCache.Stats).
func (s *Session) CacheStats() (hits, misses uint64) { return s.hits, s.misses }

// NumPasses returns the replay count per kernel.
func (s *Session) NumPasses() int { return s.sched.NumPasses() }

// flushCycles models the per-pass cache/memory flush cost: the dirty
// fraction of the working set is written back through DRAM bandwidth, plus a
// fixed reconfiguration cost. Large working sets make profiling
// disproportionately expensive (paper §V.E).
func (s *Session) flushCycles() uint64 {
	allocated := s.dev.Storage.Mark() // watermark ~ working set
	return uint64(float64(allocated)/(4*s.dev.Spec.DRAMBytesPerCycle)) + passSetupCycles
}

// Profile simulates the launch once and returns the record merged over every
// scheduled pass. The final memory state is the post-kernel one: the kernel
// "ran once" from the application's point of view, as it does under real
// replay, where memory is restored before each pass after the first.
func (s *Session) Profile(l *kernel.Launch) (*KernelRecord, error) {
	return s.ProfileCtx(context.Background(), l)
}

// ProfileCtx is Profile with cooperative cancellation: ctx is consulted
// before the invocation and inside the simulated launch. On cancellation the
// returned error wraps ctx.Err(); device memory is then in an unspecified
// intermediate state, as with any mid-profile failure.
//
// It is the one path through an invocation. One that sampling skips runs
// natively: one launch, no flush, one pass of its own cycles, the kernel's
// last sampled values. A profiled one is served from the cache when an
// identical invocation was simulated before, and is otherwise flushed,
// launched and merged over every scheduled pass; either way each pass is
// charged its cycles plus a flush.
func (s *Session) ProfileCtx(ctx context.Context, l *kernel.Launch) (*KernelRecord, error) {
	name := l.Program.Name
	if err := ctx.Err(); err != nil {
		return nil, &KernelError{Kernel: name, Pass: -1, Err: err}
	}
	start := s.tracer.Now()
	inv := s.invocations[name]
	rec := &KernelRecord{Kernel: name, Invocation: inv, Passes: 1, Sampled: inv%s.sampleEvery == 0}
	var fc uint64
	if rec.Sampled {
		rec.Passes, fc = s.sched.NumPasses(), s.flushCycles()
		if s.log.On(obs.LevelDebug) {
			s.log.Debug("profiling kernel", "kernel", name, "invocation", inv, "passes", rec.Passes)
		}
	}

	useCache := s.cache != nil && s.sampleEvery == 1
	var key replayKey
	var hit *replayEntry
	if useCache {
		key = s.keyFor(l, s.dev.Storage.HashAllocated())
		hit = s.lookup(key, rec)
	}
	if hit != nil {
		// The recorded memory effects and the parameter write stand in for
		// the launch, so the next invocation's key hashes what a simulated
		// launch would have left. Restore keeps the watermark, so fc is what
		// the simulation was charged.
		s.dev.Storage.Restore(hit.post)
		s.dev.WriteParams(l)
		rec.Cycles, rec.SMsUsed, rec.Values, rec.Cached = hit.cycles, hit.smsUsed, hit.values, true
	} else if err := s.launch(ctx, l, rec, fc); err != nil {
		return nil, err
	}
	s.account(rec, fc, start)
	if useCache && hit == nil {
		s.cache.put(key, &replayEntry{
			values:  rec.Values,
			cycles:  rec.Cycles,
			smsUsed: rec.SMsUsed,
			post:    s.dev.Storage.Snapshot(),
		})
		s.gCacheSize.Set(float64(s.cache.Len()))
	}
	return rec, nil
}

// launch runs rec's invocation once. A profiled one starts from cold caches
// and its counter set is merged over every scheduled pass; a native one
// starts from whatever the previous launch left and inherits the kernel's
// most recent sampled values.
func (s *Session) launch(ctx context.Context, l *kernel.Launch, rec *KernelRecord, fc uint64) error {
	var passWall time.Time
	var flushStart float64
	if rec.Sampled {
		if s.obsOn {
			passWall = time.Now()
		}
		flushStart = s.tracer.Now()
		s.dev.FlushCaches()
		if s.tracer != nil {
			s.tracer.Complete(obs.PIDProfiler, 1, "cupti", "flush",
				flushStart, map[string]any{"flush_cycles": fc})
		}
	}
	res, err := safeLaunch(ctx, s.dev, l)
	if err != nil {
		if !rec.Sampled {
			return &KernelError{Kernel: rec.Kernel, Pass: -1, Err: fmt.Errorf("skipped invocation: %w", err)}
		}
		return &KernelError{Kernel: rec.Kernel, Pass: 0, Err: err}
	}
	rec.Cycles, rec.SMsUsed = res.Cycles, res.SMsUsed
	if !rec.Sampled {
		rec.Values = s.lastSampled[rec.Kernel]
		return nil
	}
	counters := s.collect(res)
	if s.obsOn {
		wall := time.Since(passWall).Seconds()
		s.mFlushes.Inc()
		s.mPassWall.Add(wall)
		s.hPassWall.Observe(wall)
		if s.tracer != nil {
			s.tracer.Complete(obs.PIDProfiler, 1, "cupti",
				fmt.Sprintf("pass 1/%d", rec.Passes), flushStart,
				map[string]any{"kernel": rec.Kernel, "cycles": res.Cycles})
		}
	}
	// Each scheduled pass keeps its own slots of the one counter set.
	for _, pass := range s.sched.Passes {
		rec.Values.Merge(pass, &counters)
	}
	return nil
}

// lookup consults the cache for a profiled invocation, logging and counting
// the hit or miss; it returns nil on a miss.
func (s *Session) lookup(key replayKey, rec *KernelRecord) *replayEntry {
	e, ok := s.cache.get(key)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	if s.cacheLog.On(obs.LevelDebug) {
		if ok {
			s.cacheLog.Debug("replay cache hit", "kernel", rec.Kernel, "invocation", rec.Invocation,
				"cycles", e.cycles, "entries", s.cache.Len())
		} else {
			s.cacheLog.Debug("replay cache miss", "kernel", rec.Kernel, "invocation", rec.Invocation,
				"entries", s.cache.Len())
		}
	}
	if s.obsOn {
		if ok {
			s.mCacheHits.Inc()
		} else {
			s.mCacheMiss.Inc()
		}
	}
	return e
}

// account books one invocation, however its counters were obtained: its
// invocation index, rec.Passes runs of rec.Cycles each paying fc flush
// cycles (Fig. 13; a native run is one pass with no flush), the self-metrics,
// and a span and a debug line named after how the counters were obtained.
func (s *Session) account(rec *KernelRecord, fc uint64, start float64) {
	s.invocations[rec.Kernel]++
	if rec.Sampled {
		s.lastSampled[rec.Kernel] = rec.Values
	}
	s.nativeCycles += rec.Cycles
	s.profiledCycles += uint64(rec.Passes) * (rec.Cycles + fc)
	if s.obsOn {
		passes := float64(rec.Passes)
		s.mNativeCyc.Add(float64(rec.Cycles))
		s.mProfCyc.Add(passes * (float64(rec.Cycles) + float64(fc)))
		if rec.Sampled {
			s.mSampled.Inc()
			s.mPasses.Add(passes)
			s.mFlushCyc.Add(passes * float64(fc))
		} else {
			s.mSkipped.Inc()
		}
		if s.nativeCycles > 0 {
			s.gOverhead.Set(float64(s.profiledCycles) / float64(s.nativeCycles))
		}
		if s.tracer != nil {
			span, args := "native", map[string]any{"invocation": rec.Invocation, "cycles": rec.Cycles}
			if rec.Sampled {
				span, args["passes"], args["mode"] = "profile", rec.Passes, s.mode.String()
				if rec.Cached {
					span = "cached"
				}
			}
			s.tracer.Complete(obs.PIDProfiler, 1, "cupti", span+" "+rec.Kernel, start, args)
		}
	}
	if s.log.On(obs.LevelDebug) {
		switch {
		case !rec.Sampled:
			s.log.Debug("kernel run natively under sampling",
				"kernel", rec.Kernel, "invocation", rec.Invocation, "cycles", rec.Cycles)
		case !rec.Cached:
			s.log.Debug("kernel profiled",
				"kernel", rec.Kernel, "invocation", rec.Invocation,
				"cycles", rec.Cycles, "passes", rec.Passes)
		}
	}
}

// collect reduces a run result to one counter snapshot per the session mode.
func (s *Session) collect(res *sim.RunResult) sm.Counters {
	if s.mode == ModeSMPC || len(res.PerSM) == 0 {
		return res.Counters
	}
	// HWPM: observe the first SM that did work, scale to the device.
	var sample sm.Counters
	for i := range res.PerSM {
		if res.PerSM[i].InstExecuted > 0 {
			sample = res.PerSM[i]
			break
		}
	}
	scaled := sm.Counters{}
	for i := 0; i < res.SMsUsed; i++ {
		scaled.Add(&sample)
	}
	return scaled
}

// Overhead returns (native, profiled) simulated cycle totals across every
// profiled launch; profiled/native is the paper's Fig. 13 ratio.
func (s *Session) Overhead() (native, profiled uint64) {
	return s.nativeCycles, s.profiledCycles
}
