package sm

import (
	"reflect"
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

// TestResetMatchesNew: an SM that has run every accounting kernel on both
// engines, with tracing and a launch context set, equals after Reset — field
// for field, caches, queues, counters and clocks included — an SM New builds
// around the same memory system, except for what Reset keeps on purpose: the
// retired block and warp contexts and the coalescer's scratch backing.
func TestResetMatchesNew(t *testing.T) {
	spec := gpu.QuadroRTX4000().WithSMs(1)
	ms := mem.NewMemSys(spec)
	st := mem.NewStorage(1 << 20)
	st.Alloc(1 << 19)
	cb := mem.NewConstantBank(spec.ConstBankSize)
	s := New(spec, 0, ms, st, cb)
	s.SetLaunchContext(1<<18, 1024)
	s.EnableTrace(64)
	for _, reference := range []bool{false, true} {
		s.noWakeList = reference
		for _, l := range accountingLaunches() {
			runToIdle(t, s, l)
		}
	}
	if len(s.freeBlocks) == 0 || len(s.freeWarps) == 0 || len(s.progCache) == 0 {
		t.Fatal("the kernels left no contexts or decoded programs behind")
	}
	s.Reset()
	ms.Reset()
	if len(s.progCache) != 0 {
		t.Errorf("Reset kept %d decoded programs", len(s.progCache))
	}
	if len(s.blocks) != 0 {
		t.Fatalf("an idle SM lists %d resident blocks", len(s.blocks))
	}
	s.blocks, s.freeBlocks, s.freeWarps, s.progCache = nil, nil, nil, nil
	s.sectorScratch = s.sectorScratch[:0]
	if diff := fieldsDiffering(*s, *New(spec, 0, ms, st, cb)); len(diff) > 0 {
		t.Errorf("a reset SM differs from a new one in %v", diff)
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

// TestResetDropsDecodedPrograms: an SM reset between 50 applications, each
// launching programs built afresh, holds only the last application's decoded
// tables — a long-lived device does not pin every program it ever ran.
func TestResetDropsDecodedPrograms(t *testing.T) {
	s := testSMBacked()
	for i := 0; i < 50; i++ {
		s.Reset()
		runToIdle(t, s, singleWarpLaunch())
		runToIdle(t, s, barrierDrainLaunch())
	}
	if len(s.progCache) != 2 {
		t.Errorf("after 50 reset applications the SM holds %d decoded programs, want the last one's 2", len(s.progCache))
	}
}
