package sm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/mem"
)

// runToIdle makes one block of l resident and ticks the SM until it drains.
func runToIdle(t *testing.T, s *SM, l *kernel.Launch) {
	t.Helper()
	if !s.CanAccept(l) {
		t.Fatalf("block of %s does not fit on an idle SM", l.Program.Name)
	}
	s.LaunchBlock(l, [3]int64{}, 0)
	for guard := 0; s.Busy(); guard++ {
		if guard > 2_000_000 {
			t.Fatalf("%s: SM did not go idle", l.Program.Name)
		}
		s.Tick()
	}
}

// TestResetMatchesNew: an SM that has run every accounting kernel, with a
// launch context set, equals after Reset — field for field,
// caches, queues, counters and clocks included — an SM New builds around the
// same memory system and SetReference puts on the same engine, except for
// the retired block and warp contexts Reset keeps on purpose: Reset keeps the
// engine too. It does so on both engines whether the SM was idle or had
// blocks resident mid-kernel, and a context still resident at the Reset is
// dropped, never put on a free list.
func TestResetMatchesNew(t *testing.T) {
	spec := gpu.QuadroRTX4000().WithSMs(1)
	ms := mem.NewMemSys(spec)
	st := mem.NewStorage(1 << 20)
	st.Alloc(1 << 19)
	cb := mem.NewConstantBank(spec.ConstBankSize)
	progs := NewPrograms(spec)
	for _, busy := range []bool{false, true} {
		for _, reference := range []bool{false, true} {
			s := New(spec, 0, ms, st, cb, progs)
			s.SetReference(reference)
			s.BeginLaunch(1<<18, 1024)
			for _, l := range accountingLaunches(spec) {
				runToIdle(t, s, l)
			}
			if busy {
				for _, l := range accountingLaunches(spec) {
					if s.CanAccept(l) {
						s.LaunchBlock(l, [3]int64{}, 0)
					}
				}
				for i := 0; i < 300; i++ {
					s.Tick()
				}
				if s.residentBlocks < 2 {
					t.Fatalf("reference engine %v: %d blocks resident mid-kernel, want several", reference, s.residentBlocks)
				}
			}
			if len(s.freeBlocks) == 0 || len(s.freeWarps) == 0 || progs.Len() == 0 {
				t.Fatal("the kernels left no contexts or decoded programs behind")
			}
			resident, freeBlocks, freeWarps := residents(s), len(s.freeBlocks), len(s.freeWarps)
			s.Reset()
			ms.Reset()
			if len(s.freeBlocks) != freeBlocks || len(s.freeWarps) != freeWarps {
				t.Errorf("busy %v, reference engine %v: Reset moved the free lists from %d blocks / %d warps to %d / %d",
					busy, reference, freeBlocks, freeWarps, len(s.freeBlocks), len(s.freeWarps))
			}
			for _, w := range resident {
				if slices.Contains(s.freeWarps, w) {
					t.Fatalf("busy %v, reference engine %v: a warp resident at the Reset is on the free list", busy, reference)
				}
			}
			s.freeBlocks, s.freeWarps = nil, nil
			fresh := New(spec, 0, ms, st, cb, progs)
			fresh.SetReference(reference)
			if diff := fieldsDiffering(*s, *fresh); len(diff) > 0 {
				t.Errorf("busy %v, reference engine %v: a reset SM differs from a new one in %v", busy, reference, diff)
			}
		}
	}
}

// TestEngineSwitchBetweenLaunches: an SM whose engine changes from one
// launch to the next runs every launch as a new SM of that engine does. Each
// accounting launch runs twice on one SM, on the reference engine and then on
// the production one, with its caches, memory system and storage reset
// before each run: nothing the reference engine leaves behind — a warp the
// fetch port turned away, which only the production engine reads — may reach
// the next launch.
func TestEngineSwitchBetweenLaunches(t *testing.T) {
	for _, spec := range equivalenceSpecs() {
		ms := mem.NewMemSys(spec)
		st := mem.NewStorage(1 << 20)
		cb := mem.NewConstantBank(spec.ConstBankSize)
		s := New(spec, 0, ms, st, cb, NewPrograms(spec))
		for _, l := range accountingLaunches(spec) {
			for _, reference := range []bool{true, false} {
				s.SetReference(reference)
				s.FlushCaches()
				ms.Reset()
				st.Reset()
				st.Alloc(1 << 19)
				want := runGrid(t, l, runCfg{spec: spec, noWakeList: reference})
				assertSameRun(t, fmt.Sprintf("%s %s reference %v", spec.Name, l.Program.Name, reference), want, runOn(t, s, l, runCfg{}))
			}
		}
	}
}

// fieldsDiffering names the fields of two values of one struct type that are
// not deeply equal, unexported ones included.
func fieldsDiffering(a, b any) []string {
	va, vb := reflect.ValueOf(&a).Elem().Elem(), reflect.ValueOf(&b).Elem().Elem()
	pa, pb := reflect.New(va.Type()).Elem(), reflect.New(vb.Type()).Elem()
	pa.Set(va)
	pb.Set(vb)
	var diff []string
	for i := 0; i < pa.NumField(); i++ {
		fa := reflect.NewAt(pa.Field(i).Type(), unsafe.Pointer(pa.Field(i).UnsafeAddr())).Elem()
		fb := reflect.NewAt(pb.Field(i).Type(), unsafe.Pointer(pb.Field(i).UnsafeAddr())).Elem()
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			diff = append(diff, pa.Type().Field(i).Name)
		}
	}
	return diff
}

// TestResetDropsDecodedPrograms: the decoded tables belong to the device,
// which clears them where it resets its SMs (sim.Device.Reset, ResetSMs). An
// SM reset between 50 applications, each launching programs built afresh,
// keeps the tables of the application before it — they are not the SM's to
// drop — and with the device's clear beside each reset it holds only the last
// application's: a long-lived device does not pin every program it ever ran.
func TestResetDropsDecodedPrograms(t *testing.T) {
	s := testSMBacked()
	for i := 0; i < 50; i++ {
		s.Reset()
		if i > 0 && s.progs.Len() != 2 {
			t.Fatalf("application %d: SM.Reset left %d decoded programs of the 2 before it", i, s.progs.Len())
		}
		s.progs.Clear()
		runToIdle(t, s, singleWarpLaunch())
		runToIdle(t, s, barrierDrainLaunch())
	}
	if s.progs.Len() != 2 {
		t.Errorf("after 50 cleared applications the device holds %d decoded programs, want the last one's 2", s.progs.Len())
	}
}

// TestRecycledWarpIsFresh: warp.reset rewrites every field, so a warp that
// has run — retired on the free list, or resident mid-kernel — and is then
// reset equals, field for field, a new warp reset with the same arguments.
// An empty store list keeps its backing, which only its capacity shows.
// Across the warps sampled, every field held something other than what a
// reset writes, so no field goes unchecked.
func TestRecycledWarpIsFresh(t *testing.T) {
	spec := gpu.QuadroRTX4000().WithSMs(1)
	s := testSMOf(spec)
	s.BeginLaunch(1<<18, 1024)
	for _, l := range accountingLaunches(spec) {
		runToIdle(t, s, l)
	}
	used := append([]*warp(nil), s.freeWarps...)
	for _, l := range accountingLaunches(spec) {
		if s.CanAccept(l) {
			s.LaunchBlock(l, [3]int64{}, 0)
		}
	}
	for i := 0; i < 300; i++ {
		s.Tick()
	}
	used = append(used, residents(s)...)

	blk := &blockCtx{}
	reset := func(w *warp) *warp {
		w.reset(3, 5, 7, blk, 0x0000FFFF, 24, 1<<40)
		if len(w.storesPending) == 0 {
			w.storesPending = nil
		}
		return w
	}
	want := reset(new(warp))
	dirty := map[string]bool{}
	for i, w := range used {
		for _, f := range fieldsDiffering(*w, *want) {
			dirty[f] = true
		}
		if diff := fieldsDiffering(*reset(w), *want); len(diff) > 0 {
			t.Errorf("warp %d of %d: a reset warp differs from a new one in %v", i, len(used), diff)
		}
	}
	typ := reflect.TypeOf(warp{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i).Name; !dirty[f] {
			t.Errorf("no sampled warp held anything in %s that a reset rewrites", f)
		}
	}
}
