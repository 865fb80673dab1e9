// Package sim assembles a whole GPU device from the substrate packages: the
// SMs (internal/sm), the shared L2 and DRAM (internal/mem), device global
// memory, the constant bank, and the block dispatcher that streams a grid's
// thread blocks onto SMs as residency limits allow — the GigaThread engine's
// job on real hardware.
//
// A Device is deterministic: launching the same kernel on the same state
// yields bit-identical counters, which is what makes multi-pass profiler
// replay (internal/cupti) meaningful.
package sim

import (
	"context"
	"fmt"
	"time"

	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
	"gputopdown/internal/obs"
	"gputopdown/internal/sm"
)

// DefaultMemBytes is the simulated global-memory capacity: a limit on what an
// application may allocate, not a host allocation (mem.Storage backs only
// what is allocated). The paper's GPUs have 8 GB; workloads here are scaled
// to fit comfortably below this.
const DefaultMemBytes = 64 << 20

// maxLaunchCycles guards against non-terminating kernels.
const maxLaunchCycles = 10_000_000

// residencySampleCycles is the stride, in simulated cycles, at which per-SM
// block-residency counter samples are emitted onto the trace's simulated-time
// track while tracing is enabled.
const residencySampleCycles = 256

// checkStride is the guard-cycle stride between in-loop invariant sweeps when
// a Checker is attached. A sweep walks every SM and L2 slice, so running it
// literally every epoch would dominate the launch; every checkStride guard
// cycles still catches a violated conservation law within one stride of its
// introduction, and CheckLaunch always runs on the final state.
const checkStride = 1024

// Checker receives in-loop invariant hooks. It is an interface defined here
// (rather than importing internal/check) so the simulation loop stays free of
// upward dependencies; internal/check.Invariants implements it. Both methods
// are called from the launch goroutine of the device; one checker may be
// attached to devices launching concurrently (ProfileApps), so
// implementations must be goroutine-safe.
type Checker interface {
	// CheckEpoch runs mid-launch on the live device state, every checkStride
	// guard cycles. The device is quiescent between epochs when this runs.
	CheckEpoch(d *Device, guard uint64)
	// CheckLaunch runs once per completed launch on the assembled result.
	CheckLaunch(d *Device, res *RunResult)
}

// Device is one simulated GPU.
type Device struct {
	Spec    *gpu.Spec
	Storage *mem.Storage
	Const   *mem.ConstantBank
	Mem     *mem.MemSys // address-sliced L2 banks + per-slice DRAM channels
	SMs     []*sm.SM

	traceInterval uint64

	// fastForward enables the event-driven engine: when every busy SM
	// reports a wakeup bound past the current cycle, Launch jumps all SM
	// clocks to the device-wide minimum and bulk-accounts the skipped
	// cycles (see sm.SM.NextWakeup/AdvanceTo). Results are bit-identical
	// either way; only host wall-clock changes. On by default.
	fastForward bool
	// lastTicks counts the simulation-loop iterations of the most recent
	// launch; with fast-forward on, Cycles - lastTicks cycles were skipped.
	lastTicks uint64

	// checker, when non-nil, receives stride-gated in-loop invariant sweeps
	// and a per-launch final check (see Checker). checkNext is the guard
	// cycle of the next due sweep. Nil checker costs one pointer compare per
	// loop iteration and allocates nothing.
	checker   Checker
	checkNext uint64

	// Observability (nil/disabled by default; see SetObserver). The metric
	// handles are pre-created so the launch hot path only performs nil-safe
	// method calls — zero allocations when observability is off.
	tracer      *obs.Tracer
	obsOn       bool
	simCursorUS float64  // simulated-time cursor for the PIDSim track
	smTracks    []string // precomputed per-SM counter-track names
	mLaunches   *obs.Counter
	mBlocks     *obs.Counter
	mCycles     *obs.Counter
	mWall       *obs.Counter
	gThroughput *obs.Gauge
	// log is the component-scoped ("sim") structured logger; nil when
	// logging is disabled (see SetLogger).
	log *obs.Logger

	// Per-launch scratch reused across launches so the Launch prologue
	// allocates nothing: pre-launch counter snapshots, which SMs received a
	// block, and the dispatch dirty flags.
	launchBefore   []sm.Counters
	launchUsed     []bool
	launchRejected []uint64
}

// NewDevice builds a device with the default memory size.
func NewDevice(spec *gpu.Spec) *Device {
	return NewDeviceMem(spec, DefaultMemBytes)
}

// NewDeviceMem builds a device with an explicit global-memory capacity in
// bytes.
func NewDeviceMem(spec *gpu.Spec, memBytes int) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return assemble(spec, mem.NewStorage(memBytes), mem.NewConstantBank(spec.ConstBankSize))
}

// assemble wires SMs and the sliced memory system around the given substrate.
func assemble(spec *gpu.Spec, storage *mem.Storage, constBank *mem.ConstantBank) *Device {
	d := &Device{
		Spec:           spec,
		Storage:        storage,
		Const:          constBank,
		Mem:            mem.NewMemSys(spec),
		fastForward:    true,
		launchBefore:   make([]sm.Counters, spec.SMs),
		launchUsed:     make([]bool, spec.SMs),
		launchRejected: make([]uint64, spec.SMs),
	}
	for i := 0; i < spec.SMs; i++ {
		d.SMs = append(d.SMs, sm.New(spec, i, d.Mem, d.Storage, d.Const))
	}
	return d
}

// SetFastForward toggles the event-driven fast-forward engine. Off selects
// the naive cycle loop, the reference implementation the engine-equivalence
// tests compare against; production code leaves it on.
func (d *Device) SetFastForward(on bool) { d.fastForward = on }

// FastForwardEnabled reports whether the fast-forward engine is active.
func (d *Device) FastForwardEnabled() bool { return d.fastForward }

// LastLaunchTicks returns how many per-cycle loop iterations the most
// recent launch actually executed. The difference to the launch's Cycles is
// the number of bulk-skipped cycles — the fast-forward engine's win.
func (d *Device) LastLaunchTicks() uint64 { return d.lastTicks }

// Alloc reserves device global memory.
func (d *Device) Alloc(n int) uint64 { return d.Storage.Alloc(n) }

// FreeAll releases all global-memory allocations (between applications).
func (d *Device) FreeAll() { d.Storage.FreeAll() }

// FlushCaches invalidates every cache on the device — what the profiler does
// before a profiled launch so it observes cold-start conditions.
func (d *Device) FlushCaches() {
	d.Mem.FlushL2()
	for _, s := range d.SMs {
		s.FlushCaches()
	}
}

// EnableTrace makes every subsequent launch record an intra-kernel timeline:
// one device-aggregated counter delta per interval cycles. Pass 0 to
// disable. This is a simulator-side extension (real PMUs would need PM
// sampling support); the Top-Down analyzer consumes the samples unchanged.
func (d *Device) EnableTrace(interval uint64) {
	d.traceInterval = interval
}

// DisableTrace stops intra-kernel timeline recording: subsequent launches
// record no Trace samples. Symmetric to EnableTrace (equivalent to
// EnableTrace(0)); the per-SM sample buffers are cleared at the next launch.
func (d *Device) DisableTrace() {
	d.traceInterval = 0
}

// SetObserver attaches an execution tracer and a metrics registry to the
// device. Either may be nil; passing both nil detaches observability
// entirely and restores the zero-overhead launch path. Metric handles are
// created once here so per-launch accounting is allocation-free.
func (d *Device) SetObserver(tr *obs.Tracer, reg *obs.Registry) {
	d.tracer = tr
	d.obsOn = tr != nil || reg != nil
	// A nil registry detaches the metric handles, exactly as a nil tracer
	// detaches the trace path; the launch epilogue's handle calls are
	// nil-safe, so tracer-only observers pay no metrics cost.
	d.mLaunches, d.mBlocks, d.mCycles, d.mWall, d.gThroughput = nil, nil, nil, nil, nil
	if reg != nil {
		d.mLaunches = reg.Counter("sim_launches_total",
			"Kernel launches executed on the simulated device.", nil)
		d.mBlocks = reg.Counter("sim_blocks_dispatched_total",
			"Thread blocks dispatched to SMs by the GigaThread engine model.", nil)
		d.mCycles = reg.Counter("sim_cycles_total",
			"Simulated device cycles executed across all launches.", nil)
		d.mWall = reg.Counter("sim_wall_seconds_total",
			"Host wall-clock seconds spent simulating kernel launches.", nil)
		d.gThroughput = reg.Gauge("sim_throughput_cycles_per_second",
			"Simulation speed: simulated cycles per wall-clock second.", nil)
	}
	if tr != nil {
		tr.NameProcess(obs.PIDProfiler, "profiler (wall clock)")
		tr.NameProcess(obs.PIDSim, "simulated GPU ("+d.Spec.Name+")")
		d.smTracks = make([]string, len(d.SMs))
		for i := range d.SMs {
			d.smTracks[i] = fmt.Sprintf("SM%d resident blocks", i)
		}
	}
}

// SetChecker attaches an in-loop invariant checker (nil detaches). The
// checker observes, never mutates: results are bit-identical with and
// without one, and the nil path stays allocation-free.
func (d *Device) SetChecker(c Checker) { d.checker = c }

// SetLogger attaches a structured logger; launch summaries and fast-forward
// accounting are logged at debug level under component "sim". Nil detaches
// and restores the zero-cost path.
func (d *Device) SetLogger(l *obs.Logger) { d.log = l.Component("sim") }

// ResetCounters zeroes every SM's counters.
func (d *Device) ResetCounters() {
	for _, s := range d.SMs {
		s.ResetCounters()
	}
}

// Counters returns the device-wide aggregate of all SM counters.
func (d *Device) Counters() sm.Counters {
	var total sm.Counters
	for _, s := range d.SMs {
		c := s.Counters()
		total.Add(&c)
	}
	return total
}

// RunResult describes one kernel launch.
type RunResult struct {
	Kernel string
	// Cycles is the launch's duration: the max cycle count over SMs.
	Cycles uint64
	// Counters is the device-wide aggregate delta for this launch.
	Counters sm.Counters
	// PerSM holds each SM's counter delta (index = SM id), for HWPM-style
	// collection that observes a subset of SMs.
	PerSM []sm.Counters
	// SMsUsed is how many SMs received at least one block.
	SMsUsed int
	// Blocks is the grid size.
	Blocks int
	// Trace holds per-interval device-aggregated counter deltas when
	// tracing was enabled (see Device.EnableTrace), oldest first.
	Trace []sm.Counters
}

// Seconds converts the launch duration to wall-clock time on the device.
func (r *RunResult) Seconds(spec *gpu.Spec) float64 {
	return float64(r.Cycles) / (float64(spec.ClockMHz) * 1e6)
}

func ctaidOf(linear int, grid kernel.Dim3) [3]int64 {
	g := grid.Norm()
	return [3]int64{
		int64(linear % g.X),
		int64((linear / g.X) % g.Y),
		int64(linear / (g.X * g.Y)),
	}
}

// Launch executes one kernel to completion and returns its result. It is
// LaunchCtx with a background context.
func (d *Device) Launch(l *kernel.Launch) (*RunResult, error) {
	return d.LaunchCtx(context.Background(), l)
}

// ctxCheckInterval is how many simulation-loop iterations pass between
// cooperative cancellation checks in LaunchCtx. Each iteration covers at
// least one SM tick (or a fast-forward jump), so cancellation lands within a
// small fraction of a kernel — far inside the "~1 replay pass" bound the
// profiling service promises.
const ctxCheckInterval = 256

// LaunchCtx is Launch with cooperative cancellation: ctx is consulted every
// ctxCheckInterval simulation-loop iterations — which includes every
// fast-forward wakeup boundary, since a jump ends the iteration that took it.
// On cancellation the SMs are rebuilt to the idle state (ResetSMs), global
// and constant memory keep whatever intermediate values the aborted kernel
// wrote, and the returned error wraps ctx.Err. A background (or never
// cancelled) context pays one nil check per iteration.
func (d *Device) LaunchCtx(ctx context.Context, l *kernel.Launch) (*RunResult, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	done := ctx.Done()
	if done != nil {
		select {
		case <-done:
			return nil, fmt.Errorf("sim: kernel %s not launched: %w", l.Program.Name, ctx.Err())
		default:
		}
	}

	// Observability prologue: capture wall-clock and trace-clock starts.
	// Guarded so the disabled path allocates nothing and costs ~one branch.
	var wallStart time.Time
	var spanStart float64
	if d.obsOn {
		wallStart = time.Now()
		spanStart = d.tracer.Now()
	}

	markMem, err := d.launchPrologue(l)
	if err != nil {
		return nil, err
	}
	defer d.Storage.Release(markMem)

	nb := l.NumBlocks()
	d.lastTicks = 0
	if err := d.runLoop(ctx, done, l, nb); err != nil {
		return nil, err
	}

	res := &RunResult{Kernel: l.Program.Name, Blocks: nb, PerSM: make([]sm.Counters, len(d.SMs))}
	for i, s := range d.SMs {
		if c := s.Cycle(); c > res.Cycles {
			res.Cycles = c
		}
		delta := s.Counters().Sub(&d.launchBefore[i])
		res.PerSM[i] = delta
		res.Counters.Add(&delta)
		if d.launchUsed[i] {
			res.SMsUsed++
		}
	}
	if d.traceInterval > 0 {
		// Merge per-SM interval samples index-wise; SM clocks run in
		// lockstep from zero, so index i covers the same cycle window on
		// every SM (SMs that finished early just stop contributing).
		for _, s := range d.SMs {
			for i, sample := range s.TraceSamples() {
				for len(res.Trace) <= i {
					res.Trace = append(res.Trace, sm.Counters{})
				}
				res.Trace[i].Add(&sample)
			}
		}
	}

	// A completed launch always gets a final invariant sweep over the
	// assembled result, regardless of where the stride-gated epoch sweeps
	// last ran.
	if d.checker != nil {
		d.checker.CheckLaunch(d, res)
	}

	// Logging epilogue: one debug line per launch summarising the engine's
	// fast-forward decisions (ticks actually executed vs cycles covered).
	if d.log.On(obs.LevelDebug) {
		d.log.Debug("launch complete",
			"kernel", l.Program.Name, "blocks", nb, "sms_used", res.SMsUsed,
			"cycles", res.Cycles, "ticks", d.lastTicks)
	}

	// Observability epilogue: spans on both time axes plus self-metrics.
	if d.obsOn {
		d.mLaunches.Inc()
		d.mBlocks.Add(float64(nb))
		d.mCycles.Add(float64(res.Cycles))
		d.mWall.Add(time.Since(wallStart).Seconds())
		if wall := d.mWall.Value(); wall > 0 {
			d.gThroughput.Set(d.mCycles.Value() / wall)
		}
		if d.tracer != nil {
			simDur := obs.CyclesToUS(res.Cycles, d.Spec.ClockMHz)
			d.tracer.CompleteAt(obs.PIDSim, 0, "sim", l.Program.Name,
				d.simCursorUS, simDur, map[string]any{
					"blocks": nb, "cycles": res.Cycles, "sms_used": res.SMsUsed,
					"grid": l.Grid.String(), "block": l.Block.String(),
				})
			d.simCursorUS += simDur
			d.tracer.Complete(obs.PIDProfiler, 1, "sim", "launch "+l.Program.Name,
				spanStart, map[string]any{
					"cycles": res.Cycles, "blocks": nb, "sms_used": res.SMsUsed,
				})
		}
	}
	return res, nil
}

// neverRejected marks an SM the dispatcher has not yet seen reject a block.
const neverRejected = ^uint64(0)

// launchPrologue readies the device for one launch: it materialises the
// launch parameters in the constant bank (invalidating the per-SM constant
// caches, as the driver's upload does), carves the per-launch local-memory
// backing, resets SM clocks, snapshots pre-launch counters and arms tracing.
// It returns the storage mark the caller must Release when the kernel
// finishes. All per-launch slices live on the Device and are reused, so the
// prologue performs no heap allocation (see BenchmarkLaunchPrologue).
func (d *Device) launchPrologue(l *kernel.Launch) (markMem uint64, err error) {
	for i, p := range l.Params {
		d.Const.Write(kernel.ParamOffset(i), p, 8)
	}
	for _, s := range d.SMs {
		s.FlushIMC()
	}

	markMem = d.Storage.Mark()
	var localBase uint64
	totalThreads := l.TotalThreads()
	if l.Program.LocalBytes > 0 {
		localBase = d.Storage.Alloc(l.Program.LocalBytes * totalThreads)
	}

	for i, s := range d.SMs {
		if s.Busy() {
			d.Storage.Release(markMem)
			return 0, fmt.Errorf("sim: SM %d busy at launch of %s", i, l.Program.Name)
		}
		s.ResetClock()
		s.SetLaunchContext(localBase, totalThreads)
		d.launchBefore[i] = s.Counters()
		if d.traceInterval > 0 {
			s.EnableTrace(d.traceInterval)
		} else {
			s.DisableTrace()
		}
		d.launchUsed[i] = false
		// Dispatch dirty flags: the residency version at which each SM last
		// rejected a block. CanAccept is a pure function of occupancy, so
		// until the version moves the SM would keep rejecting — skip
		// re-probing it.
		d.launchRejected[i] = neverRejected
	}
	d.Mem.ResetDRAM()
	d.checkNext = 0
	return markMem, nil
}

// dispatchBlocks greedily places pending blocks, round-robin across SMs for
// balance, advancing *next past every block that found a home.
func (d *Device) dispatchBlocks(l *kernel.Launch, nb int, next *int, guard uint64, blockDetail bool) {
	progress := true
	for progress && *next < nb {
		progress = false
		for i, s := range d.SMs {
			if *next >= nb {
				break
			}
			if d.launchRejected[i] == s.ResidencyVersion() {
				continue // occupancy unchanged since last rejection
			}
			if s.CanAccept(l) {
				s.LaunchBlock(l, ctaidOf(*next, l.Grid), *next)
				if blockDetail {
					d.tracer.Instant(obs.PIDSim, i, "dispatch", "block",
						d.simCursorUS+obs.CyclesToUS(guard, d.Spec.ClockMHz),
						map[string]any{"block": *next, "sm": i})
				}
				d.launchUsed[i] = true
				*next++
				progress = true
			} else {
				d.launchRejected[i] = s.ResidencyVersion()
			}
		}
	}
}

// sampleResidencyTrack emits per-SM block-residency samples onto the trace's
// simulated-time track.
func (d *Device) sampleResidencyTrack(guard uint64) {
	ts := d.simCursorUS + obs.CyclesToUS(guard, d.Spec.ClockMHz)
	for i, s := range d.SMs {
		d.tracer.CounterValue(obs.PIDSim, i, d.smTracks[i], "blocks",
			ts, float64(s.ResidentBlocks()))
	}
}

// runLoop is the simulation loop: one goroutine ticks every SM in id order,
// applying shared-memory traffic inline.
func (d *Device) runLoop(ctx context.Context, done <-chan struct{}, l *kernel.Launch, nb int) error {
	next := 0
	var guard uint64
	blockDetail := d.tracer.BlockDetail()
	// Residency samples ride the trace's simulated-time track; emit them
	// only when tracing is actually enabled, not merely when a tracer is
	// attached.
	sampleResidency := d.tracer != nil && d.traceInterval > 0

	var loopIters uint64
	for {
		if done != nil {
			if loopIters%ctxCheckInterval == 0 {
				select {
				case <-done:
					// Leave the device reusable: the aborted kernel's blocks
					// are still resident, so rebuild the SMs to idle.
					d.ResetSMs()
					return fmt.Errorf("sim: kernel %s cancelled after %d cycles: %w",
						l.Program.Name, guard, ctx.Err())
				default:
				}
			}
			loopIters++
		}

		d.dispatchBlocks(l, nb, &next, guard, blockDetail)

		if sampleResidency && guard%residencySampleCycles == 0 {
			d.sampleResidencyTrack(guard)
		}

		// Tick every busy SM whose clock has caught up with the device
		// cycle. Under fast-forward, an SM whose tick came back quiescent
		// (NextWakeup past its clock) is parked: its idle span is
		// bulk-accounted immediately and the SM is left with its clock in
		// the future, to be ticked again only when guard reaches it. This
		// is safe out of lockstep because a quiescent tick mutates neither
		// the SM nor the shared L2/DRAM — the naive loop's interleaving
		// performs the same shared-state mutation sequence. minNext tracks
		// the earliest cycle at which any busy SM must tick again.
		busy := false
		minNext := ^uint64(0)
		for _, s := range d.SMs {
			if !s.Busy() {
				continue
			}
			busy = true
			c := s.Cycle()
			if c <= guard {
				s.Tick()
				d.lastTicks++
				c = s.Cycle()
				if d.fastForward {
					if w := s.NextWakeup(); w > c {
						// Cap runaway bounds (a deadlocked SM reports
						// neverWake) so the cycle guard below still trips.
						if w > maxLaunchCycles+2 {
							w = maxLaunchCycles + 2
						}
						s.AdvanceTo(w)
						c = w
					}
				}
			}
			if c < minNext {
				minNext = c
			}
		}
		if !busy {
			if next >= nb {
				return nil
			}
			return fmt.Errorf("sim: kernel %s wedged with %d blocks undispatched", l.Program.Name, nb-next)
		}
		if d.checker != nil && guard >= d.checkNext {
			d.checkNext = guard + checkStride
			d.checker.CheckEpoch(d, guard)
		}
		guard++
		// When every busy SM is parked in the future, jump the device
		// cycle straight to the earliest of their wakeups — capped at the
		// next residency-sampling boundary so no sample is skipped.
		// Dispatch needs no extra cap: a parked SM's occupancy is frozen
		// (reaps happen only in ticks), so no pending block could have
		// dispatched during the jumped span.
		if d.fastForward && minNext > guard {
			target := minNext
			if sampleResidency {
				if b := (guard + residencySampleCycles - 1) / residencySampleCycles * residencySampleCycles; b < target {
					target = b
				}
			}
			if target > guard {
				guard = target
			}
		}
		if guard > maxLaunchCycles {
			return fmt.Errorf("sim: kernel %s exceeded %d cycles (non-terminating?)", l.Program.Name, uint64(maxLaunchCycles))
		}
	}
}

// ResetSMs rebuilds every SM from scratch — idle, cycle zero, cold caches,
// zeroed counters — and resets the shared L2 and DRAM. Global and constant
// memory are preserved. This is the recovery path after a kernel panicked or
// was cancelled mid-launch, when SMs may be left busy with resident blocks
// that will never retire; the profiling middleware calls it before converting
// the failure into a KernelError so the device can keep serving the
// application's remaining kernels.
func (d *Device) ResetSMs() {
	for i := range d.SMs {
		d.SMs[i] = sm.New(d.Spec, i, d.Mem, d.Storage, d.Const)
	}
	d.Mem.FlushL2()
	d.Mem.ResetDRAM()
}

// Reset returns an idle device to what NewDeviceMem built: global memory
// unallocated and zero, the constant bank zero, every cache cold and every
// DRAM channel empty with zero statistics, each SM reset (sm.SM.Reset), no
// observer, checker or logger, trace off, fast-forward on. It keeps the host
// backings — the storage buffer, the cache arrays, each SM's retired block
// and warp contexts with their register files — so the next application
// pays none of a new device's allocations, and is indistinguishable from a
// new device (TestResetDeviceBitIdentical). Only legal between launches.
func (d *Device) Reset() {
	d.Storage.Reset()
	d.Const.Clear()
	d.Mem.Reset()
	for _, s := range d.SMs {
		s.Reset()
	}
	d.traceInterval = 0
	d.fastForward = true
	d.lastTicks, d.checkNext, d.simCursorUS = 0, 0, 0
	d.checker, d.log = nil, nil
	d.SetObserver(nil, nil)
	d.smTracks = nil
}

// MustLaunch is Launch that panics on error, for tests and examples.
func (d *Device) MustLaunch(l *kernel.Launch) *RunResult {
	r, err := d.Launch(l)
	if err != nil {
		panic(err)
	}
	return r
}
