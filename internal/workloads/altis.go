package workloads

import (
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

// Altis returns the Altis suite reconstruction (paper §V.C): a Rodinia/SHOC
// evolution refit with modern features and DNN-flavoured applications. The
// ML members (cnn, lstm) read their weights through the constant path, which
// is what makes the constant cache the top level-3 contributor in the
// paper's Fig. 10.
func Altis() []*App {
	return []*App{
		bfsApp("altis", 2), cfdApp("altis", 2), dwt2dApp(), gemmApp(),
		gupsApp(), kmeansApp("altis"), lavaMDApp("altis"), mandelbrotApp(),
		maxflopsApp(), nwApp("altis"), particlefilterApp("altis"),
		pathfinderApp("altis"), raytracingApp(), sortApp(), whereApp(),
		cnnApp(), lstmApp(), mlpApp(), gruApp(), makeSrad("altis", "srad", 128, 30),
	}
}

func dwt2dApp() *App {
	return &App{
		Name:  "dwt2d",
		Suite: "altis",
		Description: "2-D discrete wavelet transform: strided pass over rows " +
			"then a coalesced pass over columns",
		Run: func(ctx *RunCtx) error {
			const n = 64 * 1024
			in := ctx.Dev.Alloc(n * 4 * 8) // room for the strided pass
			out := ctx.Dev.Alloc(n * 4)
			randF32(ctx, in, n, 0, 1)
			rows := stridedProgram("fdwt53_rows", 32)
			cols := streamProgram("fdwt53_cols", 4)
			if err := ctx.Exec(launch1D(rows, n, 256, in, out, n)); err != nil {
				return err
			}
			return ctx.Exec(launch1D(cols, n, 256, out, out, n))
		},
	}
}

func gemmApp() *App {
	return &App{
		Name:        "gemm",
		Suite:       "altis",
		Description: "dense matrix multiply with shared-memory tiles",
		Run: func(ctx *RunCtx) error {
			const m, n, k = 128, 192, 384
			a := ctx.Dev.Alloc(m * k * 4)
			bm := ctx.Dev.Alloc(k * n * 4)
			c := ctx.Dev.Alloc(m * n * 4)
			randF32(ctx, a, m*k, -1, 1)
			randF32(ctx, bm, k*n, -1, 1)
			prog := tiledMatMulProgram("sgemm_kernel", 16)
			l := &kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: n / 16, Y: m / 16},
				Block:   kernel.Dim3{X: 16, Y: 16},
				Params:  []uint64{a, bm, c, k, n},
			}
			return ctx.Exec(l)
		},
	}
}

func gupsApp() *App {
	return &App{
		Name:  "gups",
		Suite: "altis",
		Description: "giga-updates-per-second: random read-modify-writes " +
			"across a table far larger than L2",
		Run: func(ctx *RunCtx) error {
			const tableWords = 1 << 21 // 8 MB > 4 MB L2
			const updates = 96 * 1024
			table := ctx.Dev.Alloc(tableWords * 4)
			idx := ctx.Dev.Alloc(updates * 4)
			randIdx(ctx, idx, updates, 1<<30)
			prog := gupsProgram("gups_kernel")
			l := launch1D(prog, updates, 256, table, idx, updates, tableWords-1)
			return ctx.Exec(l)
		},
	}
}

func mandelbrotApp() *App {
	return &App{
		Name:  "mandelbrot",
		Suite: "altis",
		Description: "escape-time fractal: register-resident FP32 iteration, " +
			"the highest-retire Altis app (paper ~70%)",
		Run: func(ctx *RunCtx) error {
			const w, h = 256, 128
			out := ctx.Dev.Alloc(w * h * 4)
			prog := mandelbrotProgram("mandelbrot_kernel")
			l := &kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: w / 32, Y: h / 4},
				Block:   kernel.Dim3{X: 32, Y: 4},
				Params:  []uint64{out, w, 96},
			}
			return ctx.Exec(l)
		},
	}
}

func maxflopsApp() *App {
	return &App{
		Name:        "maxflops",
		Suite:       "altis",
		Description: "peak-FLOPS microbenchmark: pure FMA chains",
		Run: func(ctx *RunCtx) error {
			const n = 64 * 1024
			out := ctx.Dev.Alloc(n * 4)
			prog := computeLoopProgram("maxflops_fp32", isa.PipeFMA, 16)
			return ctx.Exec(launch1D(prog, n, 256, out, n, 24))
		},
	}
}

func raytracingApp() *App {
	return &App{
		Name:  "raytracing",
		Suite: "altis",
		Description: "ray-scene intersection stand-in: texture-path fetches " +
			"with divergent shading work",
		Run: func(ctx *RunCtx) error {
			const n = 32 * 1024
			img := ctx.Dev.Alloc((1 << 14) * 4)
			out := ctx.Dev.Alloc(n * 4)
			shade := ctx.Dev.Alloc(n * 4)
			randF32(ctx, img, 1<<14, 0, 1)
			randIdx(ctx, shade, n, 1<<16)
			tex := texSampleProgram("raytracing_render", 6)
			div := divergentProgram("raytracing_shade", 16, 4)
			if err := ctx.Exec(launch1D(tex, n, 192, img, out, n)); err != nil {
				return err
			}
			return ctx.Exec(launch1D(div, n, 192, shade, out, n))
		},
	}
}

func sortApp() *App {
	return &App{
		Name:  "sort",
		Suite: "altis",
		Description: "radix sort: per-digit histogram and scatter passes " +
			"with atomic bucket counters",
		Run: func(ctx *RunCtx) error {
			const n = 96 * 1024
			keys := ctx.Dev.Alloc(n * 4)
			hist := ctx.Dev.Alloc(256 * 4)
			scratch := ctx.Dev.Alloc(n * 4)
			randIdx(ctx, keys, n, 1<<30)
			hi := histogramProgram("radixSortBlocks", 256)
			scatter := stridedProgram("scatter_pass", 64)
			for digit := 0; digit < 3; digit++ {
				zeroF32(ctx, hist, 256)
				if err := ctx.Exec(launch1D(hi, n, 256, keys, hist, n)); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(scatter, n/16, 256, keys, scratch, n/16)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// whereKernel: params (in, out, counter, n, thresholdBits). Stream
// compaction: ballot/popcount bookkeeping per warp, per-lane atomic slot
// reservation, divergent scatter of the kept elements.
func whereKernel() *kernel.Program {
	b := kernel.NewBuilder("where_kernel")
	in := b.Param(0)
	out := b.Param(1)
	counter := b.Param(2)
	n := b.Param(3)
	thr := b.Param(4)
	gid := b.GlobalIDX()
	b.ExitIf(b.ISetp(isa.CmpGE, gid, n), false)
	lane := b.S2R(isa.SRLaneID)
	v := b.Ldg(b.IMad(gid, b.MovImm(4), in), 0, 4)
	keep := b.ISetp(isa.CmpGT, v, thr)
	// Warp-level bookkeeping, as the cooperative-groups version computes.
	ballot := b.Ballot(keep)
	one := b.MovImm(1)
	lmask := b.IAddImm(b.ShlReg(one, lane), -1)
	rank := b.Popc(b.And(ballot, lmask))
	_ = rank
	// Kept lanes reserve an output slot and scatter.
	pos := b.AtomIf(keep, false, isa.AtomAdd, counter, one, 0)
	b.StgIf(keep, false, b.IMad(pos, b.MovImm(4), out), v, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func whereApp() *App {
	return &App{
		Name:  "where",
		Suite: "altis",
		Description: "stream compaction: ballots, per-warp atomics and " +
			"divergent scatters",
		Run: func(ctx *RunCtx) error {
			const n = 64 * 1024
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4 * 2)
			counter := ctx.Dev.Alloc(4)
			randIdx(ctx, in, n, 1<<20)
			ctx.Dev.Storage.Write(counter, 0, 4)
			prog := whereKernel()
			return ctx.Exec(launch1D(prog, n, 256, in, out, counter, n, 1<<19))
		},
	}
}

func cnnApp() *App {
	return &App{
		Name:  "cnn",
		Suite: "altis",
		Description: "convolution inference stand-in: weights live in " +
			"constant memory (16 KB, far beyond the 2 KB IMC) — the paper's " +
			"DNN constant-cache bottleneck",
		Run: func(ctx *RunCtx) error {
			const n = 48 * 1024
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			randIdx(ctx, in, n, 1<<20)
			weights := make([]float32, 4096)
			for i := range weights {
				weights[i] = ctx.Rng.Float32() - 0.5
			}
			ctx.Dev.Const.WriteF32Slice(kernel.ParamSpace, weights)
			conv := constLookupFull("conv_forward", kernel.ParamSpace, 4096, 36, 2, true, true, 24*1024)
			pool := streamProgram("maxpool_forward", 3)
			if err := ctx.Exec(launch1D(conv, n, 256, in, out, n)); err != nil {
				return err
			}
			return ctx.Exec(launch1D(pool, n, 256, out, out, n))
		},
	}
}

func mlpApp() *App {
	return &App{
		Name:  "mlp",
		Suite: "altis",
		Description: "fully-connected inference stand-in: layer weights " +
			"stream through the constant cache",
		Run: func(ctx *RunCtx) error {
			const n = 32 * 1024
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			randIdx(ctx, in, n, 1<<20)
			weights := make([]float32, 8192)
			for i := range weights {
				weights[i] = ctx.Rng.Float32() - 0.5
			}
			ctx.Dev.Const.WriteF32Slice(kernel.ParamSpace, weights)
			layer := constLookupFull("fc_forward", kernel.ParamSpace, 8192, 32, 2, true, true, 24*1024)
			for l := 0; l < 2; l++ {
				if err := ctx.Exec(launch1D(layer, n, 256, in, out, n)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func gruApp() *App {
	return &App{
		Name:  "gru",
		Suite: "altis",
		Description: "gated recurrent unit stand-in: two constant-weight " +
			"gate matvecs per step plus elementwise updates",
		Run: func(ctx *RunCtx) error {
			const n = 24 * 1024
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			randIdx(ctx, in, n, 1<<20)
			weights := make([]float32, 4096)
			for i := range weights {
				weights[i] = ctx.Rng.Float32() - 0.5
			}
			ctx.Dev.Const.WriteF32Slice(kernel.ParamSpace, weights)
			gates := constLookupFull("gru_gates", kernel.ParamSpace, 4096, 28, 2, true, true, 24*1024)
			update := streamProgram("gru_update", 4)
			for step := 0; step < 2; step++ {
				if err := ctx.Exec(launch1D(gates, n, 256, in, out, n)); err != nil {
					return err
				}
			}
			return ctx.Exec(launch1D(update, n, 256, out, out, n))
		},
	}
}

func lstmApp() *App {
	return &App{
		Name:  "lstm",
		Suite: "altis",
		Description: "recurrent cell stand-in: gate matvecs against constant " +
			"weight tables plus SFU activations",
		Run: func(ctx *RunCtx) error {
			const n = 32 * 1024
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			act := ctx.Dev.Alloc(n * 4)
			randIdx(ctx, in, n, 1<<20)
			weights := make([]float32, 8192) // 32 KB of gate weights
			for i := range weights {
				weights[i] = ctx.Rng.Float32() - 0.5
			}
			ctx.Dev.Const.WriteF32Slice(kernel.ParamSpace, weights)
			gates := constLookupFull("lstm_gates", kernel.ParamSpace, 8192, 40, 2, true, true, 24*1024)
			activ := computeLoopProgram("lstm_activation", isa.PipeSFU, 2)
			for step := 0; step < 2; step++ {
				if err := ctx.Exec(launch1D(gates, n, 256, in, out, n)); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(activ, n, 256, act, n, 4)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}
