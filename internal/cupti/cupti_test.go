package cupti

import (
	"strings"
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/obs"
	"gputopdown/internal/pmu"
	"gputopdown/internal/sim"
	"gputopdown/internal/sm"
)

func testDevice() *sim.Device {
	return sim.NewDevice(gpu.QuadroRTX4000().WithSMs(2))
}

// incKernel increments every element of a buffer — memory-mutating, so it
// exposes broken replay isolation immediately.
func incKernel() *kernel.Program {
	b := kernel.NewBuilder("inc")
	buf := b.Param(0)
	gid := b.GlobalIDX()
	addr := b.IMad(gid, b.MovImm(4), buf)
	v := b.Ldg(addr, 0, 4)
	b.Stg(addr, b.IAddImm(v, 1), 0, 4)
	b.Exit()
	return b.MustBuild()
}

func fullStallRequest() []pmu.CounterID {
	req := []pmu.CounterID{
		pmu.CtrActiveCycles, pmu.CtrActiveWarpCycles, pmu.CtrInstExecuted,
		pmu.CtrInstIssued, pmu.CtrThreadInstExecuted,
	}
	for st := sm.StateNotSelected; st < sm.NumWarpStates; st++ {
		req = append(req, pmu.StallCounter(st))
	}
	return req
}

func launchInc(d *sim.Device, buf uint64, n int) *kernel.Launch {
	return &kernel.Launch{
		Program: incKernel(),
		Grid:    kernel.Dim3{X: n / 128},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{buf},
	}
}

func TestReplayPreservesMemorySemantics(t *testing.T) {
	d := testDevice()
	const n = 1024
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))

	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPasses() < 2 {
		t.Fatalf("full stall request needs multiple passes, got %d", s.NumPasses())
	}
	rec, err := s.Profile(launchInc(d, buf, n))
	if err != nil {
		t.Fatal(err)
	}
	// Despite N passes, the kernel must appear to have run exactly once.
	vals := d.Storage.ReadU32Slice(buf, n)
	for i, v := range vals {
		if v != 1 {
			t.Fatalf("buf[%d] = %d after profiled run, want 1 (replay leaked)", i, v)
		}
	}
	if rec.Passes != s.NumPasses() {
		t.Errorf("record passes %d != schedule %d", rec.Passes, s.NumPasses())
	}
}

func TestMergedValuesMatchSinglePassTruth(t *testing.T) {
	// Profile with the multi-pass session, then compare against a direct
	// single run with full observability: determinism demands equality.
	const n = 2048
	d1 := testDevice()
	buf1 := d1.Alloc(n * 4)
	d1.Storage.WriteU32Slice(buf1, make([]uint32, n))
	s, _ := NewSession(d1, fullStallRequest(), ModeSMPC)
	rec, err := s.Profile(launchInc(d1, buf1, n))
	if err != nil {
		t.Fatal(err)
	}

	d2 := testDevice()
	buf2 := d2.Alloc(n * 4)
	d2.Storage.WriteU32Slice(buf2, make([]uint32, n))
	d2.FlushCaches()
	res := d2.MustLaunch(launchInc(d2, buf2, n))

	for _, id := range fullStallRequest() {
		want := pmu.Read(&res.Counters, id)
		if got := rec.Values[id]; got != want {
			t.Errorf("%s: merged %d != truth %d", pmu.Name(id), got, want)
		}
	}
}

func TestInvocationIndexing(t *testing.T) {
	d := testDevice()
	const n = 256
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))
	s, _ := NewSession(d, []pmu.CounterID{pmu.CtrInstExecuted}, ModeSMPC)
	l := launchInc(d, buf, n)
	for i := 0; i < 3; i++ {
		rec, err := s.Profile(l)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kernel != "inc" || rec.Invocation != i {
			t.Errorf("invocation %d recorded as %s #%d", i, rec.Kernel, rec.Invocation)
		}
	}
	// Memory reflects three logical executions.
	if v := uint32(d.Storage.Read(buf, 4)); v != 3 {
		t.Errorf("buf[0] = %d after 3 profiled runs, want 3", v)
	}
}

func TestOverheadGrowsWithPasses(t *testing.T) {
	d := testDevice()
	const n = 4096
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))
	s, _ := NewSession(d, fullStallRequest(), ModeSMPC)
	if _, err := s.Profile(launchInc(d, buf, n)); err != nil {
		t.Fatal(err)
	}
	native, profiled := s.Overhead()
	if native == 0 {
		t.Fatal("no native cycles recorded")
	}
	ratio := float64(profiled) / float64(native)
	if ratio < float64(s.NumPasses()) {
		t.Errorf("overhead ratio %.1f below pass count %d", ratio, s.NumPasses())
	}
}

func TestHWPMSamplingScales(t *testing.T) {
	d := testDevice()
	const n = 4096
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))
	s, _ := NewSession(d, []pmu.CounterID{pmu.CtrInstExecuted, pmu.CtrActiveCycles}, ModeHWPM)
	rec, err := s.Profile(launchInc(d, buf, n))
	if err != nil {
		t.Fatal(err)
	}
	// The sampled-and-scaled estimate should be within 2x of the truth for a
	// balanced kernel.
	d2 := testDevice()
	buf2 := d2.Alloc(n * 4)
	d2.Storage.WriteU32Slice(buf2, make([]uint32, n))
	d2.FlushCaches()
	truth := d2.MustLaunch(launchInc(d2, buf2, n)).Counters.InstExecuted
	got := rec.Values[pmu.CtrInstExecuted]
	if got < truth/2 || got > truth*2 {
		t.Errorf("HWPM estimate %d vs truth %d", got, truth)
	}
}

func TestSessionRejectsBadRequest(t *testing.T) {
	d := testDevice()
	if _, err := NewSession(d, []pmu.CounterID{pmu.CounterID(60000)}, ModeSMPC); err == nil {
		t.Error("bad counter request accepted")
	}
}

// A kernel with a divergent, shared-memory phase so every stall category has
// a chance to appear; verifies the state-closure invariant survives the
// profiling path.
func TestProfiledStateClosure(t *testing.T) {
	b := kernel.NewBuilder("mixed")
	sh := b.DeclShared(1024)
	buf := b.Param(0)
	gid := b.GlobalIDX()
	tid := b.S2R(isa.SRTidX)
	addr := b.IMad(gid, b.MovImm(4), buf)
	v := b.Ldg(addr, 0, 4)
	sa := b.IMad(tid, b.MovImm(4), b.MovImm(sh))
	b.Sts(sa, v, 0, 4)
	b.Bar()
	p := b.ISetpImm(isa.CmpEQ, b.AndImm(tid, 1), 0)
	b.If(p)
	w := b.Lds(sa, 0, 4)
	b.Stg(addr, b.IAddImm(w, 5), 0, 4)
	b.EndIf()
	b.Exit()
	prog := b.MustBuild()

	d := testDevice()
	const n = 1024
	buf0 := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf0, make([]uint32, n))
	s, _ := NewSession(d, fullStallRequest(), ModeSMPC)
	rec, err := s.Profile(&kernel.Launch{
		Program: prog,
		Grid:    kernel.Dim3{X: 4},
		Block:   kernel.Dim3{X: 256},
		Params:  []uint64{buf0},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sum every stalled/not-selected state from the profile; "selected"
	// warp-cycles equal inst_issued.
	stateSum := rec.Values[pmu.CtrInstIssued]
	for st := sm.StateNotSelected; st < sm.NumWarpStates; st++ {
		stateSum += rec.Values[pmu.StallCounter(st)]
	}
	if stateSum != rec.Values[pmu.CtrActiveWarpCycles] {
		t.Errorf("profiled state closure violated: %d != %d",
			stateSum, rec.Values[pmu.CtrActiveWarpCycles])
	}
}

func TestSamplingReducesOverhead(t *testing.T) {
	run := func(every int) (native, profiled uint64, sampled, skipped int) {
		d := testDevice()
		const n = 1024
		buf := d.Alloc(n * 4)
		d.Storage.WriteU32Slice(buf, make([]uint32, n))
		s, err := NewSession(d, fullStallRequest(), ModeSMPC)
		if err != nil {
			t.Fatal(err)
		}
		s.SetSampling(every)
		l := launchInc(d, buf, n)
		for i := 0; i < 12; i++ {
			rec, err := s.Profile(l)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Sampled {
				sampled++
			} else {
				skipped++
				if rec.Passes != 1 {
					t.Errorf("skipped invocation used %d passes", rec.Passes)
				}
				if rec.Values[pmu.CtrInstExecuted] == 0 {
					t.Error("skipped invocation has no inherited values")
				}
			}
		}
		// Memory semantics must still be one increment per logical run.
		if v := uint32(d.Storage.Read(buf, 4)); v != 12 {
			t.Errorf("buf[0] = %d after 12 profiled runs, want 12", v)
		}
		native, profiled = s.Overhead()
		return
	}
	nFull, pFull, sFull, _ := run(1)
	nSamp, pSamp, sSamp, skSamp := run(4)
	if sFull != 12 {
		t.Errorf("full profiling sampled %d of 12", sFull)
	}
	if sSamp != 3 || skSamp != 9 {
		t.Errorf("1-in-4 sampling: %d sampled / %d skipped", sSamp, skSamp)
	}
	ovhFull := float64(pFull) / float64(nFull)
	ovhSamp := float64(pSamp) / float64(nSamp)
	if ovhSamp >= ovhFull/2 {
		t.Errorf("sampling overhead %.1fx not much below full %.1fx", ovhSamp, ovhFull)
	}
}

// TestSessionObserverSpansAndMetrics: a profiled invocation is simulated
// once, so it must emit one profile span, one pass span, one flush and one
// launch, while the self-metrics still account every scheduled pass and agree
// exactly with the session's own Overhead().
func TestSessionObserverSpansAndMetrics(t *testing.T) {
	d := testDevice()
	const n = 1024
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))

	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	d.SetHooks(obs.NewHooks(tr, reg, nil))

	if _, err := s.Profile(launchInc(d, buf, n)); err != nil {
		t.Fatal(err)
	}

	for _, prefix := range []string{"profile ", "pass ", "flush", "launch "} {
		spans := 0
		for _, e := range tr.Events() {
			if e.Ph == "X" && strings.HasPrefix(e.Name, prefix) {
				spans++
			}
		}
		if spans != 1 {
			t.Errorf("%q spans = %d, want 1", prefix, spans)
		}
	}
	passes := s.NumPasses()
	if passes < 2 {
		t.Fatalf("need a multi-pass schedule, got %d", passes)
	}

	native, profiled := s.Overhead()
	if got := reg.Counter("profiler_native_cycles_total", "", nil).Value(); got != float64(native) {
		t.Errorf("profiler_native_cycles_total = %v, want %d", got, native)
	}
	if got := reg.Counter("profiler_profiled_cycles_total", "", nil).Value(); got != float64(profiled) {
		t.Errorf("profiler_profiled_cycles_total = %v, want %d", got, profiled)
	}
	if got := reg.Counter("profiler_passes_total", "", nil).Value(); got != float64(passes) {
		t.Errorf("profiler_passes_total = %v, want %d", got, passes)
	}
	wantRatio := float64(profiled) / float64(native)
	if got := reg.Gauge("profiler_replay_overhead_ratio", "", nil).Value(); got != wantRatio {
		t.Errorf("profiler_replay_overhead_ratio = %v, want %v", got, wantRatio)
	}
	if got := reg.Histogram("profiler_pass_wall_seconds", "", nil, nil).Count(); got != 1 {
		t.Errorf("pass wall histogram count = %d, want 1", got)
	}
}

// TestOverheadRatioSharedRegistry: sessions sharing a registry (ProfileApps,
// a daemon) with different replay overheads do not overwrite each other's
// unlabelled profiler_replay_overhead_ratio: it is the registry's profiled
// cycles over its native cycles, whichever session accounted last.
func TestOverheadRatioSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	h := obs.NewHooks(nil, reg, nil)
	const n = 1024
	var native, profiled uint64
	var ratios []float64
	for _, request := range [][]pmu.CounterID{fullStallRequest(), {pmu.CtrInstExecuted}} {
		d := testDevice()
		d.SetHooks(h)
		buf := d.Alloc(n * 4)
		d.Storage.WriteU32Slice(buf, make([]uint32, n))
		s, err := NewSession(d, request, ModeSMPC)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Profile(launchInc(d, buf, n)); err != nil {
			t.Fatal(err)
		}
		sn, sp := s.Overhead()
		native, profiled = native+sn, profiled+sp
		ratios = append(ratios, float64(sp)/float64(sn))
	}
	if ratios[0] == ratios[1] {
		t.Fatalf("both sessions have overhead %v; the test needs two different ratios", ratios[0])
	}
	want := float64(profiled) / float64(native)
	if got := reg.Gauge("profiler_replay_overhead_ratio", "", nil).Value(); got != want {
		t.Errorf("profiler_replay_overhead_ratio = %v, want %v (registry totals; the sessions' own ratios are %v)", got, want, ratios)
	}
}

// TestSessionObserverSampling: skipped invocations must count as skipped and
// emit native spans, not pass spans.
func TestSessionObserverSampling(t *testing.T) {
	d := testDevice()
	const n = 1024
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))

	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}
	s.SetSampling(2)
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	d.SetHooks(obs.NewHooks(tr, reg, nil))

	for i := 0; i < 4; i++ {
		if _, err := s.Profile(launchInc(d, buf, n)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("profiler_kernels_profiled_total", "", nil).Value(); got != 2 {
		t.Errorf("profiled = %v, want 2", got)
	}
	if got := reg.Counter("profiler_kernels_skipped_total", "", nil).Value(); got != 2 {
		t.Errorf("skipped = %v, want 2", got)
	}
	nativeSpans := 0
	for _, e := range tr.Events() {
		if e.Ph == "X" && strings.HasPrefix(e.Name, "native ") {
			nativeSpans++
		}
	}
	if nativeSpans != 2 {
		t.Errorf("native spans = %d, want 2", nativeSpans)
	}
}
