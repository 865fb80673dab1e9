package gputopdown

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"gputopdown/internal/kernel"
	"gputopdown/internal/workloads"
)

// panicApp's only kernel loads far outside any allocation, which panics in
// the memory substrate: with every kernel failed, ProfileApp must return
// the isolation errors joined together.
func panicApp() *App {
	return &App{Name: "panics", Suite: "test", Run: func(ctx *workloads.RunCtx) error {
		b := kernel.NewBuilder("wild")
		gid := b.GlobalIDX()
		addr := b.IMad(gid, b.MovImm(4), b.MovImm(1<<30))
		b.Ldg(addr, 0, 4)
		b.Exit()
		return ctx.Exec(&kernel.Launch{
			Program: b.MustBuild(),
			Grid:    kernel.Dim3{X: 1},
			Block:   kernel.Dim3{X: 32},
		})
	}}
}

// TestTypedErrorUnwrapping audits the whole wrapping stack — fmt.Errorf
// chains, errors.Join aggregation and the daemon runner — for
// errors.Is/errors.As transparency: however many layers wrap a failure, the
// public sentinels stay reachable. (Two case names still say "permanent
// marker": the marker is gone, the names are kept so the cases keep their
// identity in test history.)
func TestTypedErrorUnwrapping(t *testing.T) {
	ctx := context.Background()
	runner := NewJobRunner("rtx4000")

	cases := []struct {
		name string
		err  func() error
		is   []error
		as   bool // must unwrap to *KernelError
	}{
		{
			name: "unknown suite through GetApp",
			err:  func() error { _, err := GetApp("nosuite", "hotspot"); return err },
			is:   []error{ErrUnknownSuite},
		},
		{
			name: "unknown app through GetApp",
			err:  func() error { _, err := GetApp("rodinia", "noapp"); return err },
			is:   []error{ErrUnknownApp},
		},
		{
			name: "unknown app through the job runner's permanent marker",
			err: func() error {
				_, err := runner.Run(ctx, &JobRequest{Suite: "rodinia", App: "noapp"})
				return err
			},
			is: []error{ErrUnknownApp},
		},
		{
			name: "unknown gpu through the job runner",
			err: func() error {
				_, err := runner.Run(ctx, &JobRequest{Suite: "rodinia", App: "hotspot", GPU: "nogpu"})
				return err
			},
			// No sentinel for an unknown gpu: the case pins that it is an error.
		},
		{
			name: "no kernels through ProfileApp",
			err: func() error {
				empty := &App{Name: "empty", Suite: "test", Run: func(*workloads.RunCtx) error { return nil }}
				_, err := testProfiler(1).ProfileApp(ctx, empty)
				return err
			},
			is: []error{ErrNoKernels},
		},
		{
			name: "kernel panic through isolation, errors.Join and ProfileApp",
			err: func() error {
				_, err := testProfiler(1).ProfileApp(ctx, panicApp())
				return err
			},
			is: []error{ErrKernelPanic},
			as: true,
		},
		{
			name: "kernel panic through the job runner's permanent marker",
			err: func() error {
				_, perr := testProfiler(1).ProfileApp(ctx, panicApp())
				return fmt.Errorf("job: %w", perr)
			},
			is: []error{ErrKernelPanic},
			as: true,
		},
		{
			name: "cancellation through ProfileApp",
			err: func() error {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				app, _ := GetApp("rodinia", "hotspot")
				_, err := testProfiler(1).ProfileApp(cctx, app)
				return err
			},
			// A pre-cancelled run never reaches a kernel, so there is no
			// *KernelError — just the context sentinel.
			is: []error{context.Canceled},
		},
		{
			name: "aggregated app failures through ProfileApps and errors.Join",
			err: func() error {
				apps := []*App{panicApp(), {Name: "empty", Suite: "test", Run: func(*workloads.RunCtx) error { return nil }}}
				_, err := testProfiler(1).ProfileApps(ctx, apps)
				return err
			},
			is: []error{ErrKernelPanic, ErrNoKernels},
			as: true,
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.err()
			if err == nil {
				t.Fatal("expected an error")
			}
			for _, sentinel := range c.is {
				if !errors.Is(err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
				}
			}
			if c.as {
				var ke *KernelError
				if !errors.As(err, &ke) {
					t.Errorf("errors.As(%v, *KernelError) = false", err)
				} else if ke.Kernel == "" {
					t.Error("KernelError lost its kernel name")
				}
			}
		})
	}
}
