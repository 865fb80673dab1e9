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

	// invocations counts each kernel's invocations; the first one makes it.
	invocations map[string]int

	// Overhead accounting (simulated device cycles).
	nativeCycles   uint64
	profiledCycles uint64
}

// NewSession builds a profiling session for the requested counters. The
// session observes through dev's hooks (sim.Device.SetHooks): spans, the
// profiler self-metrics and debug records under "cupti" and "cache".
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
	}, nil
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
	h := s.dev.Hooks()
	if s.invocations == nil { // the first invocation, once SetSampling has had its say
		s.invocations = map[string]int{}
		if lg := h.Log(obs.Cupti); lg.On(obs.LevelDebug) {
			lg.Debug("session configured", "mode", s.mode.String(), "passes", s.sched.NumPasses(),
				"sample_every", s.sampleEvery)
		}
	}
	start := h.Trace().Now()
	inv := s.invocations[name]
	rec := &KernelRecord{Kernel: name, Invocation: inv, Passes: 1, Sampled: inv%s.sampleEvery == 0}
	var fc uint64
	if rec.Sampled {
		rec.Passes, fc = s.sched.NumPasses(), s.flushCycles()
		if lg := h.Log(obs.Cupti); lg.On(obs.LevelDebug) {
			lg.Debug("profiling kernel", "kernel", name, "invocation", inv, "passes", rec.Passes)
		}
	}

	useCache := s.cache != nil && s.sampleEvery == 1
	var key replayKey
	var hit *replayEntry
	if useCache {
		key = s.keyFor(l, s.dev.Storage.HashAllocated())
		hit = s.lookup(h, key, rec)
	}
	if hit != nil {
		// The recorded memory effects and the parameter write stand in for
		// the launch, so the next invocation's key hashes what a simulated
		// launch would have left. Restore keeps the watermark, so fc is what
		// the simulation was charged.
		s.dev.Storage.Restore(hit.post)
		s.dev.WriteParams(l)
		rec.Cycles, rec.SMsUsed, rec.Values, rec.Cached = hit.cycles, hit.smsUsed, hit.values, true
	} else if err := s.launch(ctx, h, l, rec, fc); err != nil {
		return nil, err
	}
	s.account(h, rec, fc, start)
	if useCache && hit == nil {
		s.cache.put(key, &replayEntry{
			values:  rec.Values,
			cycles:  rec.Cycles,
			smsUsed: rec.SMsUsed,
			post:    s.dev.Storage.Snapshot(),
		})
		if h != nil {
			h.CacheEntries.Set(float64(s.cache.Len()))
		}
	}
	return rec, nil
}

// launch runs rec's invocation once. A profiled one starts from cold caches
// and its counter set is merged over every scheduled pass; a native one
// starts from whatever the previous launch left and inherits the kernel's
// most recent sampled values.
func (s *Session) launch(ctx context.Context, h *obs.Hooks, l *kernel.Launch, rec *KernelRecord, fc uint64) error {
	tr := h.Trace()
	var passWall time.Time
	var flushStart float64
	if rec.Sampled {
		if h != nil {
			passWall = time.Now()
		}
		flushStart = tr.Now()
		s.dev.FlushCaches()
		if tr != nil {
			tr.Complete(obs.PIDProfiler, 1, "cupti", "flush",
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
	if h != nil {
		wall := time.Since(passWall).Seconds()
		h.Flushes.Inc()
		h.PassWall.Add(wall)
		h.PassWallHist.Observe(wall)
	}
	if tr != nil {
		tr.Complete(obs.PIDProfiler, 1, "cupti",
			fmt.Sprintf("pass 1/%d", rec.Passes), flushStart,
			map[string]any{"kernel": rec.Kernel, "cycles": res.Cycles})
	}
	// Each scheduled pass keeps its own slots of the one counter set.
	for _, pass := range s.sched.Passes {
		rec.Values.Merge(pass, &counters)
	}
	return nil
}

// lookup consults the cache for a profiled invocation, logging and counting
// the hit or miss; it returns nil on a miss.
func (s *Session) lookup(h *obs.Hooks, key replayKey, rec *KernelRecord) *replayEntry {
	e, ok := s.cache.get(key)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	if h != nil && ok {
		h.CacheHits.Inc()
	} else if h != nil {
		h.CacheMisses.Inc()
	}
	if lg := h.Log(obs.Cache); lg.On(obs.LevelDebug) {
		if ok {
			lg.Debug("replay cache hit", "kernel", rec.Kernel, "invocation", rec.Invocation,
				"cycles", e.cycles, "entries", s.cache.Len())
		} else {
			lg.Debug("replay cache miss", "kernel", rec.Kernel, "invocation", rec.Invocation,
				"entries", s.cache.Len())
		}
	}
	return e
}

// account books one invocation, however its counters were obtained: its
// invocation index, rec.Passes runs of rec.Cycles each paying fc flush
// cycles (Fig. 13; a native run is one pass with no flush), the self-metrics,
// and a span and a debug line named after how the counters were obtained.
func (s *Session) account(h *obs.Hooks, rec *KernelRecord, fc uint64, start float64) {
	s.invocations[rec.Kernel]++
	if rec.Sampled {
		s.lastSampled[rec.Kernel] = rec.Values
	}
	s.nativeCycles += rec.Cycles
	s.profiledCycles += uint64(rec.Passes) * (rec.Cycles + fc)
	if h != nil {
		passes := float64(rec.Passes)
		h.NativeCycles.Add(float64(rec.Cycles))
		h.ProfiledCycles.Add(passes * (float64(rec.Cycles) + float64(fc)))
		if rec.Sampled {
			h.Profiled.Inc()
			h.Passes.Add(passes)
			h.PassesPerKernel.Set(passes)
			h.FlushCycles.Add(passes * float64(fc))
		} else {
			h.Skipped.Inc()
		}
		// The registry's totals, not this session's: sessions sharing a
		// registry (ProfileApps, a daemon) agree on the unlabelled ratio.
		if native := h.NativeCycles.Value(); native > 0 {
			h.Overhead.Set(h.ProfiledCycles.Value() / native)
		}
	}
	if tr := h.Trace(); tr != nil {
		span, args := "native", map[string]any{"invocation": rec.Invocation, "cycles": rec.Cycles}
		if rec.Sampled {
			span, args["passes"], args["mode"] = "profile", rec.Passes, s.mode.String()
			if rec.Cached {
				span = "cached"
			}
		}
		tr.Complete(obs.PIDProfiler, 1, "cupti", span+" "+rec.Kernel, start, args)
	}
	if lg := h.Log(obs.Cupti); lg.On(obs.LevelDebug) {
		switch {
		case !rec.Sampled:
			lg.Debug("kernel run natively under sampling",
				"kernel", rec.Kernel, "invocation", rec.Invocation, "cycles", rec.Cycles)
		case !rec.Cached:
			lg.Debug("kernel profiled",
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
