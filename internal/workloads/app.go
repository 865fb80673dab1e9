// Package workloads provides the benchmark applications the paper evaluates:
// synthetic-but-faithful reconstructions of the Rodinia 3.1 suite, the Altis
// suite and the CUDA binaryPartitionCG sample, written in the mini ISA.
//
// Each application reproduces the microarchitectural character the paper
// attributes to its original (memory-bound stencils, constant-cache-bound
// ML kernels, divergent graph traversals, ...), not its exact numerics —
// see DESIGN.md §1. Data is generated deterministically
// from a per-app seed, so profiling runs are exactly reproducible.
package workloads

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
)

// LaunchFunc executes one kernel launch — natively or under a profiler.
type LaunchFunc func(*kernel.Launch) error

// RunCtx is handed to an application's Run: the device to allocate on, the
// executor for kernel launches, and a seeded RNG for input generation.
type RunCtx struct {
	Dev  *sim.Device
	Exec LaunchFunc
	Rng  *rand.Rand
}

// App is one benchmark application.
type App struct {
	Name        string
	Suite       string
	Description string
	// Run allocates inputs and executes the app's kernels through ctx.Exec.
	Run func(ctx *RunCtx) error
}

// ID returns suite/name.
func (a *App) ID() string { return a.Suite + "/" + a.Name }

// Execute runs the app on a device with a deterministic per-app seed.
func (a *App) Execute(dev *sim.Device, exec LaunchFunc) error {
	ctx := &RunCtx{
		Dev:  dev,
		Exec: exec,
		Rng:  rand.New(rand.NewSource(seedFor(a.ID()))),
	}
	if err := a.Run(ctx); err != nil {
		return fmt.Errorf("workloads: %s: %w", a.ID(), err)
	}
	return nil
}

// seedFor derives a stable seed from an app id.
func seedFor(id string) int64 {
	h := kernel.NewFNV()
	h.MixString(id)
	return int64(uint64(h) & 0x7FFFFFFFFFFFFFFF)
}

// Lookup finds an app by suite and name: a suite app, or one of the
// standalone apps altis/srad_dynamic (Figs. 11-12) and altis/gemm_autotune
// (the replay cache's workload), which no suite lists so that suite averages
// do not move.
func Lookup(suite, name string) (*App, bool) {
	for _, a := range append(BySuite(suite), SradDynamic(), GemmAutotune()) {
		if a.Suite == suite && a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// Suites returns the registered suite names.
func Suites() []string { return []string{"rodinia", "altis", "shoc", "cudasamples"} }

// BySuite returns a suite's apps, nil for an unknown suite.
func BySuite(suite string) []*App {
	if apps := suites[suite]; apps != nil {
		return apps()
	}
	return nil
}

var suites = map[string]func() []*App{"rodinia": Rodinia, "altis": Altis, "shoc": SHOC, "cudasamples": CUDASamples}

// ---- input-data helpers ----

// randF32 fills device memory with uniform floats in [lo, hi), written in
// place: one draw per element, in element order.
func randF32(ctx *RunCtx, addr uint64, n int, lo, hi float32) {
	b := ctx.Dev.Storage.Bytes(addr, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(lo+(hi-lo)*ctx.Rng.Float32()))
	}
}

// randIdx fills device memory with uniform indices in [0, max), written in
// place: one draw per element, in element order.
func randIdx(ctx *RunCtx, addr uint64, n, max int) {
	b := ctx.Dev.Storage.Bytes(addr, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(ctx.Rng.Intn(max)))
	}
}

// zeroF32 clears a float32 buffer.
func zeroF32(ctx *RunCtx, addr uint64, n int) {
	clear(ctx.Dev.Storage.Bytes(addr, 4*n))
}

// launch1D builds a 1-D launch with the given block size.
func launch1D(p *kernel.Program, elems, block int, params ...uint64) *kernel.Launch {
	return &kernel.Launch{
		Program: p,
		Grid:    kernel.Dim3{X: (elems + block - 1) / block},
		Block:   kernel.Dim3{X: block},
		Params:  params,
	}
}
