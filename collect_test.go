package gputopdown

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gputopdown/internal/core"
	"gputopdown/internal/cupti"
	"gputopdown/internal/kernel"
	"gputopdown/internal/pmu"
	"gputopdown/internal/workloads"
)

// crashingApp launches fill, wild, fill: the middle kernel loads from far
// outside any allocation and panics inside the memory substrate.
func crashingApp() *App {
	fill := kernel.NewBuilder("fill")
	fill.Stg(fill.IAdd(fill.Param(0), fill.Shl(fill.GlobalIDX(), 2)), fill.MovImm(7), 0, 4)
	fill.Exit()
	wild := kernel.NewBuilder("wild")
	wild.Ldg(wild.IMad(wild.GlobalIDX(), wild.MovImm(4), wild.MovImm(1<<30)), 0, 4)
	wild.Exit()
	progs := []*kernel.Program{fill.MustBuild(), wild.MustBuild(), fill.MustBuild()}
	return &App{Name: "crashing", Suite: "test", Run: func(ctx *workloads.RunCtx) error {
		buf := ctx.Dev.Alloc(256 * 4)
		for _, prog := range progs {
			err := ctx.Exec(&kernel.Launch{
				Program: prog, Grid: kernel.Dim3{X: 2}, Block: kernel.Dim3{X: 128}, Params: []uint64{buf},
			})
			if err != nil {
				return err
			}
		}
		return nil
	}}
}

// TestCollectIsolatesPanickingKernel: the crashed invocation lands on Failed
// and is not visited; the kernels before and after it are.
func TestCollectIsolatesPanickingKernel(t *testing.T) {
	p := testProfiler(1)
	request := []pmu.CounterID{pmu.CtrInstExecuted, pmu.CtrActiveCycles}
	var visited []string
	col, err := p.Collect(context.Background(), crashingApp(), request,
		func(l *kernel.Launch, rec *cupti.KernelRecord) error {
			if l.Program.Name != rec.Kernel {
				t.Errorf("launch %s visited with record of %s", l.Program.Name, rec.Kernel)
			}
			if rec.Values[pmu.CtrInstExecuted] == 0 {
				t.Errorf("%s invocation %d: no instructions counted", rec.Kernel, rec.Invocation)
			}
			visited = append(visited, rec.Kernel)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"fill", "fill"}; !reflect.DeepEqual(visited, want) {
		t.Errorf("visited %v, want %v", visited, want)
	}
	if col.Kernels != 2 || col.Passes != 1 || col.NativeCycles == 0 || col.ProfiledCycles <= col.NativeCycles {
		t.Errorf("run totals look wrong: %+v", col)
	}
	if len(col.Failed) != 1 || col.Failed[0].Kernel != "wild" || !errors.Is(col.Failed[0], ErrKernelPanic) {
		t.Errorf("Failed = %v, want the one wild kernel wrapping ErrKernelPanic", col.Failed)
	}
}

// TestCollectCancelled: a cancelled context stops the run with a
// *KernelError wrapping ctx.Err(), and nothing is visited.
func TestCollectCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	app, _ := LookupApp("rodinia", "bfs")
	_, err := testProfiler(1).Collect(ctx, app, []pmu.CounterID{pmu.CtrInstExecuted},
		func(*kernel.Launch, *cupti.KernelRecord) error {
			t.Error("visited a kernel under a cancelled context")
			return nil
		})
	var ke *KernelError
	if !errors.As(err, &ke) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a *KernelError wrapping context.Canceled", err)
	}
}

// TestCollectMatchesProfileApp: for the Top-Down counter request, Collect
// visits the counter values ProfileApp analyses — analysing them by hand
// gives ProfileApp's per-kernel analyses and run totals.
func TestCollectMatchesProfileApp(t *testing.T) {
	app, _ := LookupApp("rodinia", "bfs")
	want, err := testProfiler(3).ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	p := testProfiler(3)
	analyzer := core.NewAnalyzer(p.Spec(), 3)
	request, err := analyzer.CounterRequest()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	col, err := p.Collect(context.Background(), app, request, func(_ *kernel.Launch, rec *cupti.KernelRecord) error {
		k := want.Kernels[i]
		i++
		got := analyzer.Analyze(rec.Kernel, rec.Values)
		got.Weight = float64(rec.Cycles)
		if rec.Kernel != k.Kernel || rec.Invocation != k.Invocation || rec.Cycles != k.Cycles ||
			!reflect.DeepEqual(got, k.Analysis) {
			t.Errorf("visit %d (%s #%d) differs from ProfileApp's kernel %s #%d",
				i, rec.Kernel, rec.Invocation, k.Kernel, k.Invocation)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want.Kernels) || col.Kernels != i {
		t.Errorf("visited %d kernels (Collection says %d), ProfileApp analysed %d", i, col.Kernels, len(want.Kernels))
	}
	if col.Passes != want.Passes || col.NativeCycles != want.NativeCycles || col.ProfiledCycles != want.ProfiledCycles {
		t.Errorf("run totals %+v differ from ProfileApp's passes=%d native=%d profiled=%d",
			col, want.Passes, want.NativeCycles, want.ProfiledCycles)
	}
}
