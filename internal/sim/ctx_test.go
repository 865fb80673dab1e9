package sim

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"gputopdown/internal/kernel"
)

// buildSpin builds a kernel that spins through iters loop iterations of ALU
// work — long-running but terminating, for cancellation tests.
func buildSpin(iters int64) *kernel.Program {
	b := kernel.NewBuilder("spin")
	b.For(0, b.MovImm(iters), 1)
	b.EndFor()
	b.Exit()
	return b.MustBuild()
}

func TestLaunchCtxPreCancelled(t *testing.T) {
	d := NewDevice(testSpec())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := d.LaunchCtx(ctx, &kernel.Launch{
		Program: buildSpin(10),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled LaunchCtx = %v, want context.Canceled", err)
	}
}

func TestLaunchCtxCancelMidLaunch(t *testing.T) {
	d := NewDevice(testSpec())
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := d.LaunchCtx(ctx, &kernel.Launch{
			Program: buildSpin(1 << 40), // would trip the cycle guard long after the test deadline
			Grid:    kernel.Dim3{X: 4},
			Block:   kernel.Dim3{X: 128},
		})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the launch get going
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled launch = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled launch did not return promptly")
	}
	// Cancellation must leave the device idle and reusable.
	for i, s := range d.SMs {
		if s.Busy() {
			t.Fatalf("SM %d still busy after cancelled launch", i)
		}
	}
	res := d.MustLaunch(&kernel.Launch{
		Program: buildSpin(100),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	})
	if res.Cycles == 0 {
		t.Error("post-cancellation launch produced no cycles")
	}
}

// TestLaunchCtxDeadline: a deadline that expires mid-launch surfaces
// context.DeadlineExceeded, the error the job daemon maps to a failed job.
func TestLaunchCtxDeadline(t *testing.T) {
	d := NewDevice(testSpec())
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := d.LaunchCtx(ctx, &kernel.Launch{
		Program: buildSpin(1 << 40),
		Grid:    kernel.Dim3{X: 4},
		Block:   kernel.Dim3{X: 128},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-expired launch = %v, want context.DeadlineExceeded", err)
	}
}

// TestLaunchCtxNoPerturbation: running under an (uncancelled) context must be
// bit-identical to the plain Launch path — the checks are observation-free.
func TestLaunchCtxNoPerturbation(t *testing.T) {
	mk := func() (*Device, *kernel.Launch) {
		d := NewDevice(testSpec())
		const n = 4096
		xs := d.Alloc(n * 4)
		ys := d.Alloc(n * 4)
		xh := make([]float32, n)
		for i := range xh {
			xh[i] = float32(i)
		}
		d.Storage.WriteF32Slice(xs, xh)
		d.Storage.WriteF32Slice(ys, xh)
		return d, &kernel.Launch{
			Program: buildSaxpy(),
			Grid:    kernel.Dim3{X: n / 128},
			Block:   kernel.Dim3{X: 128},
			Params:  []uint64{xs, ys, n, float32bits(2.0)},
		}
	}
	d1, l1 := mk()
	want := d1.MustLaunch(l1)
	d2, l2 := mk()
	got, err := d2.LaunchCtx(context.Background(), l2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Counters != want.Counters {
		t.Errorf("LaunchCtx diverged from Launch: cycles %d vs %d", got.Cycles, want.Cycles)
	}
}

// epochHook is a Checker that runs do at the first epoch at or past guard,
// while the launch's blocks are resident mid-kernel.
type epochHook struct {
	guard uint64
	do    func()
}

func (h *epochHook) CheckEpoch(_ *Device, guard uint64) {
	if guard >= h.guard && h.do != nil {
		do := h.do
		h.do = nil
		do()
	}
}

func (h *epochHook) CheckLaunch(*Device, *RunResult) {}

// TestRecoveryAllocFree: recovering a device from a kernel cancelled or
// panicked mid-launch resets the SMs it has — ResetSMs builds no SM, cache,
// queue or register file and allocates nothing. The recovery runs on what each
// failure leaves: blocks resident mid-kernel, and a warp that panicked on a
// wild load. End to end, a launch cancelled mid-kernel keeps every SM.
func TestRecoveryAllocFree(t *testing.T) {
	spin := &kernel.Launch{Program: buildSpin(1 << 20), Grid: kernel.Dim3{X: 8}, Block: kernel.Dim3{X: 128}}
	wild := kernel.NewBuilder("wild")
	wild.Ldg(wild.IMad(wild.GlobalIDX(), wild.MovImm(4), wild.MovImm(1<<30)), 0, 4)
	wild.Exit()
	for _, c := range []struct {
		name  string
		fails func(d *Device)
	}{
		{"cancelled mid-launch", func(d *Device) {
			d.SetChecker(&epochHook{guard: 2048, do: func() { panic("launch stopped mid-kernel") }})
			_, _ = d.Launch(spin)
		}},
		{"panicked kernel", func(d *Device) {
			_, _ = d.Launch(&kernel.Launch{Program: wild.MustBuild(), Grid: kernel.Dim3{X: 8}, Block: kernel.Dim3{X: 128}})
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := NewDevice(testSpec())
			d.MustLaunch(&kernel.Launch{Program: buildSpin(100), Grid: kernel.Dim3{X: 8}, Block: kernel.Dim3{X: 128}})
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("the launch did not stop")
					}
				}()
				c.fails(d)
			}()
			d.SetChecker(nil)
			if !d.SMs[0].Busy() {
				t.Fatal("the failed launch left SM 0 idle; nothing to recover")
			}
			// One P, as testing.AllocsPerRun measures: no other goroutine's
			// allocation lands between the two readings.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d.ResetSMs()
			runtime.ReadMemStats(&after)
			if n, b := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n != 0 || b != 0 {
				t.Errorf("recovery allocated %d times, %d bytes; want 0", n, b)
			}
			for i, s := range d.SMs {
				if s.Busy() || s.Cycle() != 0 {
					t.Fatalf("SM %d not reset: busy=%v cycle=%d", i, s.Busy(), s.Cycle())
				}
			}
		})
	}

	d := NewDevice(testSpec())
	sms := slices.Clone(d.SMs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	d.SetChecker(&epochHook{guard: 2048, do: cancel})
	if _, err := d.LaunchCtx(ctx, spin); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled launch = %v, want context.Canceled", err)
	}
	for i, s := range d.SMs {
		if s != sms[i] || s.Busy() {
			t.Errorf("after a cancelled launch SM %d is a new SM (%v) or busy (%v)", i, s != sms[i], s.Busy())
		}
	}
}

// TestResetSMsRecoversPanickedLaunch: after a kernel panics mid-launch (wild
// memory access), ResetSMs restores an idle, launchable device — the recovery
// contract the cupti panic-isolation layer depends on.
func TestResetSMsRecoversPanickedLaunch(t *testing.T) {
	d := NewDevice(testSpec())
	b := kernel.NewBuilder("wild")
	gid := b.GlobalIDX()
	addr := b.IMad(gid, b.MovImm(4), b.MovImm(1<<30))
	b.Ldg(addr, 0, 4)
	b.Exit()
	wild := &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("wild load did not panic")
			}
		}()
		_, _ = d.Launch(wild)
	}()
	d.ResetSMs()
	for i, s := range d.SMs {
		if s.Busy() || s.Cycle() != 0 {
			t.Fatalf("SM %d not reset: busy=%v cycle=%d", i, s.Busy(), s.Cycle())
		}
	}
	res := d.MustLaunch(&kernel.Launch{
		Program: buildSpin(100),
		Grid:    kernel.Dim3{X: 1},
		Block:   kernel.Dim3{X: 32},
	})
	if res.Cycles == 0 {
		t.Error("post-reset launch produced no cycles")
	}
}
