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
	"math/bits"
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
	Spec    *gpu.Spec // the device's own copy (see NewDeviceMem)
	Storage *mem.Storage
	Const   *mem.ConstantBank
	Mem     *mem.MemSys // address-sliced L2 banks + per-slice DRAM channels
	SMs     []*sm.SM

	// progs holds the decoded instruction tables every SM of the device reads:
	// one per program, decoded by the first SM to run it.
	progs *sm.Programs

	traceEvery uint64 // EnableTrace's sample interval, 0: off

	// reference selects the oracle (SetReference); results are bit-identical
	// either way, only host wall-clock changes. lastTicks counts the SM ticks
	// of the most recent launch.
	reference bool
	lastTicks uint64

	// checker, when non-nil, receives stride-gated in-loop invariant sweeps
	// and a per-launch final check (see Checker). checkNext is the guard
	// cycle of the next due sweep. Nil checker costs one pointer compare per
	// loop iteration and allocates nothing.
	checker   Checker
	checkNext uint64

	// hooks observe the device's launches (nil: not observed; see SetHooks).
	// simCursorUS is the simulated-time cursor of the PIDSim track and
	// smTracks the per-SM counter-track names, made when a tracer attaches.
	hooks       *obs.Hooks
	simCursorUS float64
	smTracks    []string

	// Per-launch scratch the prologue rewrites, reused so that it allocates
	// nothing: the dispatch dirty flags and, on a traced launch, each SM's
	// counters at its previous sample point (allocated by the first one).
	launchRejected []uint64
	traceBase      []sm.Counters
}

// NewDevice builds a device with the default memory size.
func NewDevice(spec *gpu.Spec) *Device {
	return NewDeviceMem(spec, DefaultMemBytes)
}

// NewDeviceMem builds a device with an explicit global-memory capacity in
// bytes. The device, its SMs and its memory system share a copy of *spec, so
// a caller that edits its spec afterwards changes no device built from it.
func NewDeviceMem(spec *gpu.Spec, memBytes int) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	own := *spec
	return assemble(&own, mem.NewStorage(memBytes), mem.NewConstantBank(own.ConstBankSize))
}

// assemble wires SMs and the sliced memory system around the given substrate.
func assemble(spec *gpu.Spec, storage *mem.Storage, constBank *mem.ConstantBank) *Device {
	d := &Device{
		Spec:           spec,
		Storage:        storage,
		Const:          constBank,
		Mem:            mem.NewMemSys(spec),
		SMs:            make([]*sm.SM, spec.SMs),
		progs:          sm.NewPrograms(spec),
		launchRejected: make([]uint64, spec.SMs),
	}
	for i := range d.SMs {
		d.SMs[i] = sm.New(spec, i, d.Mem, d.Storage, d.Const, d.progs)
	}
	return d
}

// SetReference makes an idle device the oracle of the engine-equivalence
// tests, whose run loop ticks every busy SM every cycle on its reference
// engine (sm.SM.SetReference), or, off (the default), a production device.
func (d *Device) SetReference(on bool) {
	d.reference = on
	for _, s := range d.SMs {
		s.SetReference(on)
	}
}

// LastLaunchTicks returns how many per-cycle loop iterations the most
// recent launch actually executed. The difference to the launch's Cycles is
// the number of bulk-skipped cycles — the fast-forward engine's win.
func (d *Device) LastLaunchTicks() uint64 { return d.lastTicks }

// Alloc reserves device global memory.
func (d *Device) Alloc(n int) uint64 { return d.Storage.Alloc(n) }

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
	d.traceEvery = interval
}

// SetHooks attaches the observers of the device's launches: spans on both
// time axes, the sim self-metrics and debug records under component "sim".
// Nil detaches them and restores the allocation-free launch path.
func (d *Device) SetHooks(h *obs.Hooks) {
	d.hooks = h
	if tr := h.Trace(); tr != nil {
		tr.NameProcess(obs.PIDProfiler, "profiler (wall clock)")
		tr.NameProcess(obs.PIDSim, "simulated GPU ("+d.Spec.Name+")")
		d.smTracks = make([]string, len(d.SMs))
		for i := range d.SMs {
			d.smTracks[i] = fmt.Sprintf("SM%d resident blocks", i)
		}
	}
}

// Hooks returns the device's observers (nil when none are attached); a
// profiling session on the device observes through them too.
func (d *Device) Hooks() *obs.Hooks { return d.hooks }

// SetChecker attaches an in-loop invariant checker (nil detaches). The
// checker observes, never mutates: results are bit-identical with and
// without one, and the nil path stays allocation-free.
func (d *Device) SetChecker(c Checker) { d.checker = c }

// RunResult describes one kernel launch.
type RunResult struct {
	Kernel string
	// Cycles is the launch's duration: the max cycle count over SMs.
	Cycles uint64
	// Counters is the device-wide aggregate for this launch.
	Counters sm.Counters
	// PerSM holds the counters of each of the first SMsUsed SMs (index = SM
	// id), for HWPM-style collection that observes a subset of SMs.
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
// On cancellation the SMs are reset to the idle state (ResetSMs), global
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
	h := d.hooks
	var wallStart time.Time
	var spanStart float64
	if h != nil {
		wallStart = time.Now()
		spanStart = h.Trace().Now()
	}

	// The dispatcher deals the first pass of blocks round-robin from SM 0,
	// so block b lands on SM b and the launch runs on the first
	// min(blocks, SMs) SMs; the others stay idle and are not touched.
	nb := l.NumBlocks()
	used := min(nb, len(d.SMs))
	markMem, err := d.launchPrologue(l, used)
	if err != nil {
		return nil, err
	}
	defer d.Storage.Release(markMem)

	res := &RunResult{Kernel: l.Program.Name, Blocks: nb, SMsUsed: used, PerSM: make([]sm.Counters, used)}
	d.lastTicks = 0
	if err := d.runLoop(ctx, done, l, res); err != nil {
		return nil, err
	}
	for i, s := range d.SMs[:used] {
		res.Cycles = max(res.Cycles, s.Cycle())
		res.PerSM[i] = s.Counters()
		res.Counters.Add(&res.PerSM[i])
	}

	// A completed launch always gets a final invariant sweep over the
	// assembled result, regardless of where the stride-gated epoch sweeps
	// last ran.
	if d.checker != nil {
		d.checker.CheckLaunch(d, res)
	}

	// Observability epilogue: spans on both time axes, self-metrics and one
	// debug line summarising the engine's fast-forward decisions (ticks
	// actually executed vs cycles covered).
	if h != nil {
		h.Launches.Inc()
		h.Blocks.Add(float64(nb))
		h.SimCycles.Add(float64(res.Cycles))
		h.SimWall.Add(time.Since(wallStart).Seconds())
		if wall := h.SimWall.Value(); wall > 0 {
			h.Throughput.Set(h.SimCycles.Value() / wall)
		}
		if lg := h.Log(obs.Sim); lg.On(obs.LevelDebug) {
			lg.Debug("launch complete",
				"kernel", l.Program.Name, "blocks", nb, "sms_used", res.SMsUsed,
				"cycles", res.Cycles, "ticks", d.lastTicks)
		}
		if tr := h.Trace(); tr != nil {
			simDur := obs.CyclesToUS(res.Cycles, d.Spec.ClockMHz)
			tr.CompleteAt(obs.PIDSim, 0, "sim", l.Program.Name,
				d.simCursorUS, simDur, map[string]any{
					"blocks": nb, "cycles": res.Cycles, "sms_used": res.SMsUsed,
					"grid": l.Grid.String(), "block": l.Block.String(),
				})
			d.simCursorUS += simDur
			tr.Complete(obs.PIDProfiler, 1, "sim", "launch "+l.Program.Name,
				spanStart, map[string]any{
					"cycles": res.Cycles, "blocks": nb, "sms_used": res.SMsUsed,
				})
		}
	}
	return res, nil
}

// WriteParams writes the launch's parameters into the constant bank, as the
// launch prologue does. A profiler that serves a launch from its replay
// cache instead of simulating it calls it too, so the constant bank, like
// the restored storage, ends where the launch would have left it.
func (d *Device) WriteParams(l *kernel.Launch) {
	for i, p := range l.Params {
		d.Const.Write(kernel.ParamOffset(i), p, 8)
	}
}

// neverRejected marks an SM the dispatcher has not yet seen reject a block.
const neverRejected = ^uint64(0)

// launchPrologue readies the device for one launch: it materialises the
// launch parameters in the constant bank, carves the per-launch local-memory
// backing and begins the launch (sm.SM.BeginLaunch) on the first used SMs,
// the ones the grid reaches. It returns the storage mark the caller must
// Release when the kernel finishes, or an error, having changed nothing, when
// an SM is busy or the local memory does not fit. All per-launch slices live on the Device and are reused, so the
// prologue performs no heap allocation (see BenchmarkLaunchPrologue).
func (d *Device) launchPrologue(l *kernel.Launch, used int) (markMem uint64, err error) {
	for i, s := range d.SMs {
		if s.Busy() {
			return 0, fmt.Errorf("sim: SM %d busy at launch of %s", i, l.Program.Name)
		}
	}
	markMem = d.Storage.Mark()
	totalThreads := l.TotalThreads()
	// Alloc rounds up to 8 bytes from an 8-aligned mark, so the local memory
	// fits exactly when it is at most the free bytes rounded down to 8.
	hi, local := bits.Mul64(uint64(l.Program.LocalBytes), uint64(totalThreads))
	if free := uint64(d.Storage.Size()) - markMem; l.Program.LocalBytes > 0 && (hi != 0 || local > free&^7) {
		needed := fmt.Sprint(local)
		if hi != 0 {
			needed = "over 2^64"
		}
		return 0, fmt.Errorf("sim: kernel %s needs %s bytes of local memory (%d threads × %d bytes), %d bytes of device memory are free",
			l.Program.Name, needed, totalThreads, l.Program.LocalBytes, free)
	}
	d.WriteParams(l)
	var localBase uint64
	if l.Program.LocalBytes > 0 {
		localBase = d.Storage.Alloc(int(local))
	}
	for i, s := range d.SMs[:used] {
		s.BeginLaunch(localBase, totalThreads)
		// Dispatch dirty flags: the residency version at which each SM last
		// rejected a block. CanAccept is a pure function of occupancy, so
		// until the version moves the SM would keep rejecting — skip
		// re-probing it.
		d.launchRejected[i] = neverRejected
	}
	if d.traceEvery > 0 {
		if d.traceBase == nil {
			d.traceBase = make([]sm.Counters, len(d.SMs))
		}
		clear(d.traceBase[:used])
	}
	d.Mem.ResetDRAM()
	d.checkNext = 0
	return markMem, nil
}

// dispatchBlocks greedily places pending blocks, round-robin across the
// launch's SMs for balance, advancing *next past every block that found a
// home.
func (d *Device) dispatchBlocks(l *kernel.Launch, sms []*sm.SM, nb int, next *int, guard uint64, blockDetail bool) {
	progress := true
	for progress && *next < nb {
		progress = false
		for i, s := range sms {
			if *next >= nb {
				break
			}
			if d.launchRejected[i] == s.ResidencyVersion() {
				continue // occupancy unchanged since last rejection
			}
			if s.CanAccept(l) {
				s.LaunchBlock(l, ctaidOf(*next, l.Grid), *next)
				if blockDetail {
					d.hooks.Trace().Instant(obs.PIDSim, i, "dispatch", "block",
						d.simCursorUS+obs.CyclesToUS(guard, d.Spec.ClockMHz),
						map[string]any{"block": *next, "sm": i})
				}
				*next++
				progress = true
			} else {
				d.launchRejected[i] = s.ResidencyVersion()
			}
		}
	}
}

// sampleResidencyTrack emits the launch's per-SM block-residency samples
// onto the trace's simulated-time track.
func (d *Device) sampleResidencyTrack(sms []*sm.SM, guard uint64) {
	ts := d.simCursorUS + obs.CyclesToUS(guard, d.Spec.ClockMHz)
	for i, s := range sms {
		d.hooks.Trace().CounterValue(obs.PIDSim, i, d.smTracks[i], "blocks",
			ts, float64(s.ResidentBlocks()))
	}
}

// sampleTrace adds SM i's counter delta since its previous sample point to
// res.Trace[c/T-1], c being the multiple of the trace interval T its clock
// has reached. An SM's sample points are consecutive multiples of T, so the
// one that reaches a point first appends its slot.
func (d *Device) sampleTrace(res *RunResult, i int, c uint64) {
	k := int(c/d.traceEvery) - 1
	if k == len(res.Trace) {
		res.Trace = append(res.Trace, sm.Counters{})
	}
	cur := d.SMs[i].Counters()
	delta := cur.Sub(&d.traceBase[i])
	res.Trace[k].Add(&delta)
	d.traceBase[i] = cur
}

// runLoop is the simulation loop: one goroutine ticks the launch's SMs,
// res.SMsUsed of them, in id order, applying shared-memory traffic inline.
// It alone decides where the simulation pauses: with tracing on, every SM
// stops at each multiple of the trace interval, where its counters are
// sampled into res.Trace and, with a tracer attached, the residency track is
// sampled too.
func (d *Device) runLoop(ctx context.Context, done <-chan struct{}, l *kernel.Launch, res *RunResult) error {
	sms, nb, next := d.SMs[:res.SMsUsed], res.Blocks, 0
	var guard uint64
	tr := d.hooks.Trace()
	blockDetail := tr.BlockDetail()
	interval := d.traceEvery
	// Residency samples ride the trace's simulated-time track; emit them
	// only when tracing is actually enabled, not merely when a tracer is
	// attached.
	sampleResidency := tr != nil && interval > 0

	var loopIters uint64
	for {
		if done != nil {
			if loopIters%ctxCheckInterval == 0 {
				select {
				case <-done:
					// Leave the device reusable: the aborted kernel's blocks
					// are still resident, so reset the SMs to idle.
					d.ResetSMs()
					return fmt.Errorf("sim: kernel %s cancelled after %d cycles: %w",
						l.Program.Name, guard, ctx.Err())
				default:
				}
			}
			loopIters++
		}

		d.dispatchBlocks(l, sms, nb, &next, guard, blockDetail)

		if sampleResidency && guard%interval == 0 {
			d.sampleResidencyTrack(sms, guard)
		}

		// Tick every busy SM whose clock has caught up with the device
		// cycle. Off the reference, an SM whose tick came back quiescent
		// (NextWakeup past its clock) is parked: its idle span is
		// bulk-accounted immediately and the SM is left with its clock in
		// the future, to be ticked again only when guard reaches it. This
		// is safe out of lockstep because a quiescent tick mutates neither
		// the SM nor the shared L2/DRAM — the reference's per-cycle loop
		// performs the same shared-state mutation sequence. With tracing on,
		// the jump stops at the next sample point, where the SM is sampled
		// and waits for guard; its next tick there is an exact repeat, as
		// NextWakeup promises for every cycle before the bound. minNext
		// tracks the earliest cycle at which any busy SM must tick again.
		busy := false
		minNext := ^uint64(0)
		for i, s := range sms {
			if !s.Busy() {
				continue
			}
			busy = true
			c := s.Cycle()
			if c <= guard {
				s.Tick()
				d.lastTicks++
				c = s.Cycle()
				if !d.reference {
					// Cap runaway bounds (a deadlocked SM reports neverWake)
					// so the cycle guard below still trips. A tick that
					// landed on a sample point leaves no room to jump.
					w := min(s.NextWakeup(), maxLaunchCycles+2)
					if interval > 0 {
						w = min(w, (c+interval-1)/interval*interval)
					}
					if w > c {
						s.AdvanceTo(w)
						c = w
					}
				}
				if interval > 0 && c%interval == 0 {
					d.sampleTrace(res, i, c)
				}
			}
			minNext = min(minNext, c)
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
		// The device cycle moves to the earliest cycle a busy SM must tick
		// at: the next one on the reference, where every busy SM ticked;
		// otherwise, when every busy SM is parked, straight to the
		// earliest of their wakeups or sample points, so no sample point is
		// skipped. Dispatch needs no extra cap: a parked SM's occupancy is
		// frozen (reaps happen only in ticks), so no pending block could
		// have dispatched during the jumped span.
		guard = max(guard+1, minNext)
		if guard > maxLaunchCycles {
			return fmt.Errorf("sim: kernel %s exceeded %d cycles (non-terminating?)", l.Program.Name, uint64(maxLaunchCycles))
		}
	}
}

// ResetSMs resets every SM (sm.SM.Reset: idle, cycle zero, cold caches,
// zeroed counters, resident contexts dropped), drops the decoded programs,
// flushes the shared L2 and resets the DRAM channels. Global and constant memory are preserved. This is
// the recovery path after a kernel panicked or was cancelled mid-launch, when
// SMs may be left busy with resident blocks that will never retire; the
// profiling middleware calls it before converting the failure into a
// KernelError so the device can keep serving the application's remaining
// kernels.
func (d *Device) ResetSMs() {
	for _, s := range d.SMs {
		s.Reset()
	}
	d.progs.Clear()
	d.Mem.FlushL2()
	d.Mem.ResetDRAM()
}

// Reset returns the device, in whatever state a run left it, to what
// NewDeviceMem built: global memory unallocated and zero, the constant bank
// zero, every cache cold and every DRAM channel empty with zero statistics,
// each SM reset (sm.SM.Reset), no decoded program, no hooks or checker,
// trace off, reference off. It keeps the host backings — the storage
// buffer, the cache arrays, each SM's retired block and warp contexts with
// their register files — so the next application pays none of a new
// device's allocations, and is indistinguishable from a new device
// (TestResetDeviceBitIdentical).
func (d *Device) Reset() {
	d.Storage.Reset()
	d.Const.Clear()
	d.Mem.Reset()
	for _, s := range d.SMs {
		s.Reset()
		s.SetReference(false)
	}
	d.progs.Clear()
	*d = Device{Spec: d.Spec, Storage: d.Storage, Const: d.Const, Mem: d.Mem, SMs: d.SMs, progs: d.progs,
		traceBase: d.traceBase, launchRejected: d.launchRejected}
}

// MustLaunch is Launch that panics on error, for tests and examples.
func (d *Device) MustLaunch(l *kernel.Launch) *RunResult {
	r, err := d.Launch(l)
	if err != nil {
		panic(err)
	}
	return r
}
