package sm

import (
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
)

// testSMBacked builds a single SM whose storage has a mapped scratch region
// covering the addresses the wakeup-test kernels touch.
func testSMBacked() *SM { return testSMOf(gpu.QuadroRTX4000().WithSMs(1)) }

// testSMOf is testSMBacked for an arbitrary spec.
func testSMOf(spec *gpu.Spec) *SM {
	ms := mem.NewMemSys(spec)
	st := mem.NewStorage(1 << 20)
	st.Alloc(1 << 19) // map the low half; kernels address well below this
	cb := mem.NewConstantBank(spec.ConstBankSize)
	return New(spec, 0, ms, st, cb, NewPrograms(spec))
}

// runCfg selects how runGrid drives the SM.
type runCfg struct {
	spec       *gpu.Spec // the SM's model, nil = a one-SM RTX 4000
	ff         bool      // jump to NextWakeup whenever the bound allows, exactly as Device.Launch does
	noWakeList bool      // reference engine: every warp classified from scratch every tick
	every      uint64    // record Counters() whenever the clock reaches a multiple, 0 = never
	tick       func(*SM) // called in place of SM.Tick, which it must call once, nil = SM.Tick
}

// smRun is the outcome of driving one SM to completion on a grid; skips
// counts the jump windows taken.
type smRun struct {
	ctr    Counters
	cycles uint64
	skips  int
	snaps  []Counters
}

// runGrid runs every block of l's one-dimensional grid on one SM, making each
// block resident as soon as it fits (all of them at cycle 0 when they do), and
// ticks the SM until the last block has drained.
func runGrid(t *testing.T, l *kernel.Launch, cfg runCfg) smRun {
	t.Helper()
	spec := cfg.spec
	if spec == nil {
		spec = gpu.QuadroRTX4000().WithSMs(1)
	}
	s := testSMOf(spec)
	s.SetReference(cfg.noWakeList)
	return runOn(t, s, l, cfg)
}

// runOn is runGrid on a given idle SM, whatever its engine; cfg.spec and
// cfg.noWakeList are not read.
func runOn(t *testing.T, s *SM, l *kernel.Launch, cfg runCfg) smRun {
	t.Helper()
	s.BeginLaunch(0, 0)
	if !s.CanAccept(l) {
		t.Fatalf("block of %s does not fit on an idle SM", l.Program.Name)
	}
	var r smRun
	for next, guard := 0, 0; next < l.Grid.X || s.Busy(); guard++ {
		if guard > 2_000_000 {
			t.Fatalf("%s: SM did not go idle", l.Program.Name)
		}
		for next < l.Grid.X && s.CanAccept(l) {
			s.LaunchBlock(l, [3]int64{int64(next)}, next)
			next++
		}
		if cfg.tick != nil {
			cfg.tick(s)
		} else {
			s.Tick()
		}
		w := s.NextWakeup()
		if w < s.Cycle() {
			t.Fatalf("%s: NextWakeup %d behind clock %d", l.Program.Name, w, s.Cycle())
		}
		if cfg.ff && w > s.Cycle() {
			r.skips++
		}
		// Under fast-forward, stop at every snapshot boundary on the way to
		// the bound: a partial AdvanceTo is legal and leaves the bound intact.
		for {
			if cfg.every > 0 && s.Cycle()%cfg.every == 0 {
				r.snaps = append(r.snaps, s.Counters())
			}
			if !cfg.ff || s.Cycle() >= w {
				break
			}
			target := w
			if cfg.every > 0 {
				target = min(w, (s.Cycle()/cfg.every+1)*cfg.every)
			}
			s.AdvanceTo(target)
		}
	}
	r.ctr = s.Counters()
	r.cycles = s.Cycle()
	return r
}

// assertEquivalent runs the block under both engines and demands identical
// counters and cycle counts, with the fast-forward side actually taking
// skips (otherwise the case exercises nothing).
func assertEquivalent(t *testing.T, l *kernel.Launch) {
	t.Helper()
	naive := runGrid(t, l, runCfg{})
	ff := runGrid(t, l, runCfg{ff: true})
	if ff.skips == 0 {
		t.Errorf("%s: fast-forward took no skips; case exercises nothing", l.Program.Name)
	}
	assertSameRun(t, l.Program.Name, naive, ff)
}

// assertSameRun demands identical cycle counts, final counters and periodic
// counter snapshots.
func assertSameRun(t *testing.T, name string, want, got smRun) {
	t.Helper()
	if want.cycles != got.cycles {
		t.Errorf("%s: cycles %d, want %d", name, got.cycles, want.cycles)
	}
	if want.ctr != got.ctr {
		t.Errorf("%s: counters differ:\nwant: %+v\ngot:  %+v", name, want.ctr, got.ctr)
	}
	if len(want.snaps) != len(got.snaps) {
		t.Fatalf("%s: %d snapshots, want %d", name, len(got.snaps), len(want.snaps))
	}
	for i := range want.snaps {
		if want.snaps[i] != got.snaps[i] {
			t.Errorf("%s: snapshot %d differs:\nwant: %+v\ngot:  %+v", name, i, want.snaps[i], got.snaps[i])
			break
		}
	}
}

// barrierDrainLaunch builds a 2-warp block where warp 0 issues a long-latency
// load-dependent store and exits (entering drain with the store in flight)
// while warp 1 waits at the block barrier — the barrier-with-draining-peer
// wakeup case: the barrier warp has no self bound (neverWake) and the bound
// must come from the dying peer's store completion and death event.
func barrierDrainLaunch() *kernel.Launch {
	b := kernel.NewBuilder("bardrain")
	gid := b.GlobalIDX()
	addr := b.IAddImm(b.Shl(gid, 2), 4096)
	p := b.ISetpImm(isa.CmpLT, gid, 32) // warp 0 only
	v := b.Ldg(addr, 0, 4)              // long-scoreboard dependency
	b.StgIf(p, false, addr, v, 0, 4)
	b.ExitIf(p, false)
	b.Bar()
	b.Stg(addr, v, 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 64},
	}
}

// singleWarpLaunch builds a 1-warp block: on a 4-subpartition SM, three
// subpartitions stay empty, pinning the empty-subpartition accounting
// (SubpActiveCycles, ActiveWarpCycles) under bulk skips.
func singleWarpLaunch() *kernel.Launch {
	b := kernel.NewBuilder("onewarp")
	gid := b.GlobalIDX()
	addr := b.IAddImm(b.Shl(gid, 2), 8192)
	acc := b.MovImm(0)
	for i := 0; i < 4; i++ {
		v := b.Ldg(addr, int64(i*256), 4) // serialized long-latency loads
		acc = b.IAdd(acc, v)
	}
	b.Stg(addr, acc, 0, 4)
	b.Exit()
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	}
}

func TestWakeupBarrierWithDrainingPeer(t *testing.T) {
	assertEquivalent(t, barrierDrainLaunch())
}

func TestWakeupEmptySubpartitions(t *testing.T) {
	l := singleWarpLaunch()
	assertEquivalent(t, l)

	// The empty subpartitions must contribute nothing to SubpActiveCycles:
	// with one resident warp the closure SubpActiveCycles == ActiveCycles
	// holds on a 4-subpartition SM.
	r := runGrid(t, l, runCfg{ff: true})
	if r.ctr.SubpActiveCycles != r.ctr.ActiveCycles {
		t.Errorf("SubpActiveCycles %d != ActiveCycles %d with a single resident warp",
			r.ctr.SubpActiveCycles, r.ctr.ActiveCycles)
	}
}

// TestAdvanceToGuardsBound pins the safety rail: jumping past the reported
// bound must panic rather than silently corrupt counters.
func TestAdvanceToGuardsBound(t *testing.T) {
	s := testSMBacked()
	l := singleWarpLaunch()
	s.LaunchBlock(l, [3]int64{}, 0)
	for i := 0; i < 10_000 && s.Busy(); i++ {
		s.Tick()
		if w := s.NextWakeup(); w > s.Cycle() {
			defer func() {
				if recover() == nil {
					t.Error("AdvanceTo beyond NextWakeup did not panic")
				}
			}()
			s.AdvanceTo(w + 1)
			return
		}
	}
	t.Fatal("no skip window found")
}
