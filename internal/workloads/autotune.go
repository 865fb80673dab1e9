package workloads

import "gputopdown/internal/kernel"

// GemmAutotune models the workload a CUPTI-attached profiler sees under an
// autotuning or benchmarking harness: the same GEMM configuration launched
// back-to-back with identical inputs while the harness collects timing
// samples (Filipovič et al. build whole counter datasets this way, running
// thousands of such repetitions per kernel). From the second repetition on
// the launches are byte-identical — C holds the same product it is about to
// be overwritten with — which is exactly the redundancy the profiler's
// replay result cache exists to exploit: invocation 1 fills C (miss),
// invocation 2 re-proves the new end state (miss), and every later
// repetition replays from the cache without re-simulation.
//
// 20 repetitions is at the low end of real harnesses (Kernel Tuner and KTT
// default to tens of observations per configuration); it keeps the profiled
// run short while leaving 18 of 20 invocations cacheable.
func GemmAutotune() *App { return GemmAutotuneSized(128, 20) }

// GemmAutotuneSized is GemmAutotune with an explicit problem size and
// repetition count (dim must be a multiple of the 16x16 tile) — real
// harnesses sweep both. Tests use a small instance so the cache path is
// exercised cheaply.
func GemmAutotuneSized(dim, reps int) *App {
	return &App{
		Name:  "gemm_autotune",
		Suite: "altis",
		Description: "autotuning harness: one shared-memory GEMM configuration " +
			"launched repeatedly with identical inputs",
		Run: func(ctx *RunCtx) error {
			a := ctx.Dev.Alloc(dim * dim * 4)
			bm := ctx.Dev.Alloc(dim * dim * 4)
			c := ctx.Dev.Alloc(dim * dim * 4)
			randF32(ctx, a, dim*dim, -1, 1)
			randF32(ctx, bm, dim*dim, -1, 1)
			prog := tiledMatMulProgram("sgemm_kernel", 16)
			for rep := 0; rep < reps; rep++ {
				l := &kernel.Launch{
					Program: prog,
					Grid:    kernel.Dim3{X: dim / 16, Y: dim / 16},
					Block:   kernel.Dim3{X: 16, Y: 16},
					Params:  []uint64{a, bm, c, uint64(dim), uint64(dim)},
				}
				if err := ctx.Exec(l); err != nil {
					return err
				}
			}
			return nil
		},
	}
}
