package cupti

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"gputopdown/internal/kernel"
)

// wildKernel loads from an address far outside any allocation, which panics
// inside the memory substrate — the injected crash for isolation tests.
func wildKernel() *kernel.Program {
	b := kernel.NewBuilder("wild")
	gid := b.GlobalIDX()
	addr := b.IMad(gid, b.MovImm(4), b.MovImm(1<<30))
	b.Ldg(addr, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func launchWild() *kernel.Launch {
	return &kernel.Launch{
		Program: wildKernel(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	}
}

// TestPanicIsolationSequential: a panicking kernel must come back as a
// *KernelError wrapping ErrKernelPanic — not a process crash — and the
// session must keep profiling sibling kernels on the recovered device.
func TestPanicIsolationSequential(t *testing.T) {
	d := testDevice()
	const n = 1024
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))
	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}

	_, err = s.Profile(launchWild())
	if err == nil {
		t.Fatal("panicking kernel profiled without error")
	}
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("error %v does not unwrap to *KernelError", err)
	}
	if ke.Kernel != "wild" {
		t.Errorf("KernelError names kernel %q, want wild", ke.Kernel)
	}
	if !errors.Is(err, ErrKernelPanic) {
		t.Fatalf("error %v does not wrap ErrKernelPanic", err)
	}
	// Lanes are bounds-checked in lane order: the error carries the storage
	// panic of lane 0, the first active lane.
	if want := "mem: access of 4 bytes at 0x40000000 outside allocated"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not carry %q", err, want)
	}

	// Sibling kernel on the same session and device still profiles.
	rec, err := s.Profile(launchInc(d, buf, n))
	if err != nil {
		t.Fatalf("sibling kernel after panic: %v", err)
	}
	if rec.Cycles == 0 || rec.Passes == 0 {
		t.Errorf("sibling record looks empty: %+v", rec)
	}
}

// TestProfileCtxCancellationMidPass: cancellation during the simulated launch
// must return promptly with a *KernelError wrapping context.Canceled and leave
// the device reusable.
func TestProfileCtxCancellationMidPass(t *testing.T) {
	d := testDevice()
	// One launch of this size simulates for well over the 10 ms the test
	// waits before cancelling.
	const n = 512 * 1024
	buf := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(buf, make([]uint32, n))
	s, err := NewSession(d, fullStallRequest(), ModeSMPC)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.ProfileCtx(ctx, launchInc(d, buf, n))
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ProfileCtx = %v, want context.Canceled", err)
		}
		var ke *KernelError
		if !errors.As(err, &ke) {
			t.Fatalf("cancellation error %v is not a *KernelError", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled ProfileCtx did not return promptly")
	}
}
