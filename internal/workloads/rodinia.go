package workloads

import (
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
)

// Rodinia returns the Rodinia-3.1 suite reconstruction (paper §V.B). Each
// app mimics the microarchitectural profile of its namesake: srad_v2,
// heartwall, hotspot3D and pathfinder retire well; myocyte and nn stress the
// constant cache; bfs diverges; most of the rest is backend/memory bound.
func Rodinia() []*App {
	return []*App{
		backpropApp(), bfsApp("rodinia", 1), btreeApp(), cfdApp("rodinia", 1),
		gaussianApp(), heartwallApp(), hotspotApp(), hotspot3DApp(),
		huffmanApp(), kmeansApp("rodinia"), lavaMDApp("rodinia"), ludApp(),
		myocyteApp(), nnApp(), nwApp("rodinia"), particlefilterApp("rodinia"),
		pathfinderApp("rodinia"), sradV1App(), sradV2App(), streamclusterApp(),
	}
}

func backpropApp() *App {
	return &App{
		Name:  "backprop",
		Suite: "rodinia",
		Description: "two-layer perceptron training step: shared-memory " +
			"layer-forward reduction plus streaming weight adjustment",
		Run: func(ctx *RunCtx) error {
			const n = 64 * 1024
			in := ctx.Dev.Alloc(n * 4)
			hidden := ctx.Dev.Alloc(n / 256 * 4)
			weights := ctx.Dev.Alloc(n * 4)
			randF32(ctx, in, n, 0, 1)
			randF32(ctx, weights, n, -0.5, 0.5)
			forward := reductionProgram("bpnn_layerforward", 256)
			adjust := streamProgram("bpnn_adjust_weights", 6)
			for epoch := 0; epoch < 2; epoch++ {
				if err := ctx.Exec(launch1D(forward, n, 256, in, hidden)); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(adjust, n, 256, in, weights, n)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// bfsKernel: params (offsets, edges, dist, n, level). Threads whose distance
// equals level relax their out-edges.
func bfsKernel(name string) *kernel.Program {
	b := kernel.NewBuilder(name)
	offsets := b.Param(0)
	edges := b.Param(1)
	dist := b.Param(2)
	n := b.Param(3)
	level := b.Param(4)
	gid := b.GlobalIDX()
	b.ExitIf(b.ISetp(isa.CmpGE, gid, n), false)
	four := b.MovImm(4)
	d := b.Ldg(b.IMad(gid, four, dist), 0, 4)
	p := b.ISetp(isa.CmpEQ, d, level)
	b.If(p)
	oaddr := b.IMad(gid, four, offsets)
	start := b.Ldg(oaddr, 0, 4)
	end := b.Ldg(oaddr, 4, 4)
	count := b.ISub(end, start)
	ebase := b.IMad(start, four, edges)
	nlevel := b.IAddImm(level, 1)
	i := b.For(0, count, 1)
	nb := b.Ldg(b.IMad(i, four, ebase), 0, 4)
	daddr := b.IMad(nb, four, dist)
	dn := b.Ldg(daddr, 0, 4)
	unvisited := b.ISetpImm(isa.CmpGE, dn, 1<<20)
	b.StgIf(unvisited, false, daddr, nlevel, 0, 4)
	b.EndFor()
	b.EndIf()
	b.Exit()
	return b.MustBuild()
}

func bfsApp(suite string, version int) *App {
	return &App{
		Name:  "bfs",
		Suite: suite,
		Description: "level-synchronous breadth-first search over a random " +
			"graph in CSR form: divergent, irregular gathers",
		Run: func(ctx *RunCtx) error {
			const nodes = 48 * 1024
			degree := 4 + version // altis refit bumps the average degree
			edgesN := nodes * degree
			offsets := ctx.Dev.Alloc((nodes + 1) * 4)
			edges := ctx.Dev.Alloc(edgesN * 4)
			dist := ctx.Dev.Alloc(nodes * 4)
			offs := make([]uint32, nodes+1)
			for i := 1; i <= nodes; i++ {
				offs[i] = offs[i-1] + uint32(ctx.Rng.Intn(2*degree))
				if offs[i] > uint32(edgesN) {
					offs[i] = uint32(edgesN)
				}
			}
			ctx.Dev.Storage.WriteU32Slice(offsets, offs)
			randIdx(ctx, edges, edgesN, nodes)
			d0 := make([]uint32, nodes)
			for i := range d0 {
				d0[i] = 1 << 21
			}
			d0[0] = 0
			ctx.Dev.Storage.WriteU32Slice(dist, d0)
			prog := bfsKernel("bfs_kernel")
			for level := 0; level < 7; level++ {
				l := launch1D(prog, nodes, 256, offsets, edges, dist, nodes, uint64(level))
				if err := ctx.Exec(l); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func btreeApp() *App {
	return &App{
		Name:  "b+tree",
		Suite: "rodinia",
		Description: "bundled key lookups walking randomised node chains: " +
			"dependent loads, pure memory latency",
		Run: func(ctx *RunCtx) error {
			const n = 16 * 1024
			nodes := n / 32 // one chain per warp
			chain := ctx.Dev.Alloc(nodes * 4)
			keys := ctx.Dev.Alloc(nodes * 32 * 4)
			out := ctx.Dev.Alloc(n * 4)
			// A random permutation cycle defeats both caches and prefetch.
			perm := ctx.Rng.Perm(nodes)
			next := make([]uint32, nodes)
			for i := 0; i < nodes; i++ {
				next[perm[i]] = uint32(perm[(i+1)%nodes])
			}
			ctx.Dev.Storage.WriteU32Slice(chain, next)
			randIdx(ctx, keys, nodes*32, 1<<20)
			prog := pointerChaseProgram("findK")
			for q := 0; q < 2; q++ {
				if err := ctx.Exec(launch1D(prog, n, 128, chain, keys, out, 48)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func cfdApp(suite string, version int) *App {
	return &App{
		Name:  "cfd",
		Suite: suite,
		Description: "unstructured-grid Euler solver: neighbour-gather flux " +
			"computation plus a streaming time step",
		Run: func(ctx *RunCtx) error {
			const elems = 48 * 1024
			const k = 4
			idx := ctx.Dev.Alloc(elems * k * 4)
			data := ctx.Dev.Alloc(elems * 4)
			out := ctx.Dev.Alloc(elems * 4)
			if version >= 2 {
				// Altis refit: neighbour lists sorted into windows for
				// locality ("better performance" per §V.C).
				ids := make([]uint32, elems*k)
				for i := range ids {
					base := (i / (256 * k)) * 256
					ids[i] = uint32(base + ctx.Rng.Intn(512))
					if ids[i] >= elems {
						ids[i] = uint32(elems - 1)
					}
				}
				ctx.Dev.Storage.WriteU32Slice(idx, ids)
			} else {
				randIdx(ctx, idx, elems*k, elems)
			}
			randF32(ctx, data, elems, 0, 1)
			flux := gatherProgram("compute_flux", k, 6)
			step := streamProgram("time_step", 4)
			for it := 0; it < 3; it++ {
				if err := ctx.Exec(launch1D(flux, elems, 192, idx, data, out, elems)); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(step, elems, 192, out, data, elems)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func gaussianApp() *App {
	return &App{
		Name:  "gaussian",
		Suite: "rodinia",
		Description: "Gaussian elimination: a long sequence of tiny Fan1/Fan2 " +
			"launches that never fill the machine",
		Run: func(ctx *RunCtx) error {
			const dim = 512
			m := ctx.Dev.Alloc(dim * dim * 4)
			v := ctx.Dev.Alloc(dim * 4)
			randF32(ctx, m, dim*dim, 0.1, 1)
			randF32(ctx, v, dim, 0.1, 1)
			fan1 := streamProgram("Fan1", 2)
			fan2 := streamProgram("Fan2", 3)
			for it := 0; it < 24; it++ {
				rows := dim - it*16
				if err := ctx.Exec(launch1D(fan1, rows, 128, v, v, uint64(rows))); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(fan2, rows*16, 128, m, m, uint64(rows*16))); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func heartwallApp() *App {
	return &App{
		Name:  "heartwall",
		Suite: "rodinia",
		Description: "template-matching convolutions expressed as tiled " +
			"shared-memory matrix products: compute-dense, high retire",
		Run: func(ctx *RunCtx) error {
			const m, n, k = 128, 128, 288
			a := ctx.Dev.Alloc(m * k * 4)
			bm := ctx.Dev.Alloc(k * n * 4)
			c := ctx.Dev.Alloc(m * n * 4)
			randF32(ctx, a, m*k, -1, 1)
			randF32(ctx, bm, k*n, -1, 1)
			prog := tiledMatMulProgram("heartwall_conv", 8)
			l := &kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: n / 8, Y: m / 8},
				Block:   kernel.Dim3{X: 8, Y: 8},
				Params:  []uint64{a, bm, c, k, n},
			}
			sums := ctx.Dev.Alloc(m * n / 256 * 4)
			track := divergentProgram("heartwall_track", 12, 6)
			red := reductionProgram("heartwall_reduce", 256)
			for f := 0; f < 2; f++ {
				if err := ctx.Exec(l); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(track, m*n, 256, c, c, m*n)); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(red, m*n, 256, c, sums)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func hotspotApp() *App {
	return &App{
		Name:        "hotspot",
		Suite:       "rodinia",
		Description: "2-D thermal stencil with moderate arithmetic per point",
		Run: func(ctx *RunCtx) error {
			const w, h = 512, 256
			in := ctx.Dev.Alloc(w * h * 4)
			out := ctx.Dev.Alloc(w * h * 4)
			randF32(ctx, in, w*h, 0, 100)
			prog := stencil2DProgram("calculate_temp", 6)
			l := &kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: w / 32, Y: h / 4},
				Block:   kernel.Dim3{X: 32, Y: 4},
				Params:  []uint64{in, out, w, h},
			}
			for it := 0; it < 4; it++ {
				if err := ctx.Exec(l); err != nil {
					return err
				}
				in, out = out, in
				l.Params = []uint64{in, out, w, h}
			}
			return nil
		},
	}
}

func hotspot3DApp() *App {
	return &App{
		Name:  "hotspot3D",
		Suite: "rodinia",
		Description: "3-D thermal stencil streaming the Z dimension in " +
			"registers: strong reuse, high retire",
		Run: func(ctx *RunCtx) error {
			const w, h, d = 96, 96, 32
			in := ctx.Dev.Alloc(w * h * d * 4)
			out := ctx.Dev.Alloc(w * h * d * 4)
			randF32(ctx, in, w*h*d, 0, 100)
			prog := stencil3DProgram("hotspotOpt1", 10)
			l := &kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: w / 32, Y: h / 8},
				Block:   kernel.Dim3{X: 32, Y: 8},
				Params:  []uint64{in, out, w, h, d},
			}
			for it := 0; it < 3; it++ {
				if err := ctx.Exec(l); err != nil {
					return err
				}
				in, out = out, in
				l.Params = []uint64{in, out, w, h, d}
			}
			return nil
		},
	}
}

func huffmanApp() *App {
	return &App{
		Name:  "huffman",
		Suite: "rodinia",
		Description: "entropy coding: data-dependent branch paths and " +
			"histogram atomics",
		Run: func(ctx *RunCtx) error {
			const n = 64 * 1024
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			hist := ctx.Dev.Alloc(256 * 4)
			randIdx(ctx, in, n, 1<<16)
			zeroF32(ctx, hist, 256)
			div := divergentProgram("vlc_encode", 20, 4)
			hi := histogramProgram("histo_kernel", 256)
			if err := ctx.Exec(launch1D(div, n, 256, in, out, n)); err != nil {
				return err
			}
			return ctx.Exec(launch1D(hi, n, 256, in, hist, n))
		},
	}
}

func kmeansApp(suite string) *App {
	return &App{
		Name:  "kmeans",
		Suite: suite,
		Description: "distance computation against a small centroid table in " +
			"constant memory plus streaming updates",
		Run: func(ctx *RunCtx) error {
			const n = 48 * 1024
			const dims = 8
			feats := ctx.Dev.Alloc(n * 4)
			idx := ctx.Dev.Alloc(n * dims * 4)
			out := ctx.Dev.Alloc(n * 4)
			randF32(ctx, feats, n, 0, 1)
			randIdx(ctx, idx, n*dims, n)
			randIdxU := idx // feature gathers per dimension
			// Centroids fit the IMC: mostly hits, a realistic light load.
			centroids := make([]float32, 128)
			for i := range centroids {
				centroids[i] = ctx.Rng.Float32()
			}
			ctx.Dev.Const.WriteF32Slice(kernel.ParamSpace, centroids)
			dist := gatherProgram("kmeansPoint", dims, 2)
			assign := constLookupProgram("kmeans_assign", kernel.ParamSpace, 128, 8, 2, true)
			for it := 0; it < 2; it++ {
				if err := ctx.Exec(launch1D(dist, n, 256, randIdxU, feats, out, n)); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(assign, n, 256, out, out, n)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func lavaMDApp(suite string) *App {
	return &App{
		Name:  "lavamd",
		Suite: suite,
		Description: "n-body short-range forces in shared-memory tiles: " +
			"compute-heavy with barrier phases",
		Run: func(ctx *RunCtx) error {
			const m, n, k = 128, 128, 256
			a := ctx.Dev.Alloc(m * k * 4)
			bm := ctx.Dev.Alloc(k * n * 4)
			c := ctx.Dev.Alloc(m * n * 4)
			randF32(ctx, a, m*k, -1, 1)
			randF32(ctx, bm, k*n, -1, 1)
			mm := tiledMatMulProgram("kernel_gpu_cuda", 8)
			stream := streamProgram("lavamd_update", 8)
			l := &kernel.Launch{
				Program: mm,
				Grid:    kernel.Dim3{X: n / 8, Y: m / 8},
				Block:   kernel.Dim3{X: 8, Y: 8},
				Params:  []uint64{a, bm, c, k, n},
			}
			if err := ctx.Exec(l); err != nil {
				return err
			}
			return ctx.Exec(launch1D(stream, m*n, 256, c, c, m*n))
		},
	}
}

func ludApp() *App {
	return &App{
		Name:  "lud",
		Suite: "rodinia",
		Description: "blocked LU decomposition: alternating tiny diagonal " +
			"kernels and tile updates",
		Run: func(ctx *RunCtx) error {
			const dim = 256
			m := ctx.Dev.Alloc(dim * dim * 4)
			randF32(ctx, m, dim*dim, 0.1, 1)
			diag := streamProgram("lud_diagonal", 4)
			peri := streamProgram("lud_perimeter", 4)
			inner := tiledMatMulProgram("lud_internal", 8)
			for t := 0; t < 4; t++ {
				rem := dim - t*16
				if rem < 32 {
					break
				}
				if err := ctx.Exec(launch1D(diag, 256, 128, m, m, 256)); err != nil {
					return err
				}
				if err := ctx.Exec(launch1D(peri, rem*16, 128, m, m, uint64(rem*16))); err != nil {
					return err
				}
				g := rem / 8
				l := &kernel.Launch{
					Program: inner,
					Grid:    kernel.Dim3{X: g, Y: g},
					Block:   kernel.Dim3{X: 8, Y: 8},
					Params:  []uint64{m, m, m, 32, 128},
				}
				if err := ctx.Exec(l); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func myocyteApp() *App {
	return &App{
		Name:  "myocyte",
		Suite: "rodinia",
		Description: "cardiac ODE integration: tiny grid (no parallelism) " +
			"reading large model-parameter tables through the constant cache",
		Run: func(ctx *RunCtx) error {
			const n = 4 * 64 // 4 blocks of 64 threads: deliberately tiny
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			randIdx(ctx, in, n, 1<<20)
			table := make([]float32, 8192) // 32 KB >> 2 KB IMC
			for i := range table {
				table[i] = ctx.Rng.Float32()
			}
			ctx.Dev.Const.WriteF32Slice(kernel.ParamSpace, table)
			prog := constLookupProgram("solver_2", kernel.ParamSpace, 8192, 48, 6, true)
			for step := 0; step < 3; step++ {
				if err := ctx.Exec(launch1D(prog, n, 64, in, out, n)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func nnApp() *App {
	return &App{
		Name:  "nn",
		Suite: "rodinia",
		Description: "nearest-neighbour search against record tables read " +
			"through the constant cache",
		Run: func(ctx *RunCtx) error {
			// Few records per launch: like myocyte, nn offers the machine
			// little parallelism, so its dependent record walks through the
			// constant bank cannot be hidden.
			const n = 1536
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			randIdx(ctx, in, n, 1<<20)
			table := make([]float32, 4096) // 16 KB > IMC
			for i := range table {
				table[i] = ctx.Rng.Float32()
			}
			ctx.Dev.Const.WriteF32Slice(kernel.ParamSpace, table)
			prog := constLookupChase("euclid", kernel.ParamSpace, 4096, 48, 1, true, true)
			for q := 0; q < 3; q++ {
				if err := ctx.Exec(launch1D(prog, n, 64, in, out, n)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// nwKernel: params (ref, out, n). Wavefront DP over a shared-memory tile:
// barrier-dominated with integer max/add work.
func nwKernel(name string, steps int) *kernel.Program {
	b := kernel.NewBuilder(name)
	sh := b.DeclShared(64 * 4)
	ref := b.Param(0)
	out := b.Param(1)
	n := b.Param(2)
	tid := b.S2R(isa.SRTidX)
	gid := b.GlobalIDX()
	b.ExitIf(b.ISetp(isa.CmpGE, gid, n), false)
	four := b.MovImm(4)
	v := b.Ldg(b.IMad(gid, four, ref), 0, 4)
	shAddr := b.IMad(tid, four, b.MovImm(sh))
	leftIdx := b.AndImm(b.IAddImm(tid, 63), 63)
	leftAddr := b.IMad(leftIdx, four, b.MovImm(sh))
	b.Sts(shAddr, v, 0, 4)
	b.Bar()
	cur := b.Mov(v)
	for i := 0; i < steps; i++ {
		left := b.Lds(leftAddr, 0, 4)
		up := b.Lds(shAddr, 0, 4)
		m := b.IMax(left, up)
		b.MovTo(cur, b.IAdd(m, cur))
		b.Bar()
		b.Sts(shAddr, cur, 0, 4)
		b.Bar()
	}
	b.Stg(b.IMad(gid, four, out), cur, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func nwApp(suite string) *App {
	return &App{
		Name:  "nw",
		Suite: suite,
		Description: "Needleman-Wunsch wavefront alignment: " +
			"synchronisation-bound shared-memory diagonals",
		Run: func(ctx *RunCtx) error {
			const n = 16 * 1024
			ref := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			randIdx(ctx, ref, n, 32)
			prog := nwKernel("needle_cuda_shared_1", 12)
			for pass := 0; pass < 2; pass++ {
				if err := ctx.Exec(launch1D(prog, n, 64, ref, out, n)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func particlefilterApp(suite string) *App {
	return &App{
		Name:  "particlefilter",
		Suite: suite,
		Description: "particle propagation, likelihood and resampling: " +
			"mixed compute, reduction and histogram phases",
		Run: func(ctx *RunCtx) error {
			const n = 32 * 1024
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			sums := ctx.Dev.Alloc(n / 256 * 4)
			hist := ctx.Dev.Alloc(64 * 4)
			randIdx(ctx, in, n, 1<<16)
			prop := streamProgram("likelihood_kernel", 10)
			red := reductionProgram("sum_kernel", 256)
			hi := histogramProgram("normalize_weights", 64)
			if err := ctx.Exec(launch1D(prop, n, 256, in, out, n)); err != nil {
				return err
			}
			if err := ctx.Exec(launch1D(red, n, 256, out, sums)); err != nil {
				return err
			}
			return ctx.Exec(launch1D(hi, n, 256, in, hist, n))
		},
	}
}

// pathfinderKernel: params (wall, result, cols). Each block keeps a row
// segment in shared memory and advances several DP rows per launch — mostly
// compute between barriers, so it retires well.
func pathfinderKernel(name string, rowsPerLaunch int) *kernel.Program {
	b := kernel.NewBuilder(name)
	sh := b.DeclShared(256 * 4)
	wall := b.Param(0)
	result := b.Param(1)
	cols := b.Param(2)
	tid := b.S2R(isa.SRTidX)
	gid := b.GlobalIDX()
	b.ExitIf(b.ISetp(isa.CmpGE, gid, cols), false)
	four := b.MovImm(4)
	cur := b.Ldg(b.IMad(gid, four, result), 0, 4)
	shAddr := b.IMad(tid, four, b.MovImm(sh))
	lAddr := b.IMad(b.AndImm(b.IAddImm(tid, 255), 255), four, b.MovImm(sh))
	rAddr := b.IMad(b.AndImm(b.IAddImm(tid, 1), 255), four, b.MovImm(sh))
	colsBytes := b.Shl(cols, 2)
	wAddr := b.IMad(gid, four, wall)
	// Prefetch every row's wall cost up front: the loads issue back to back
	// so their latencies overlap, and the DP loop proper runs out of
	// registers and shared memory — the structure that makes the real
	// pathfinder one of the healthiest Rodinia kernels.
	wv := make([]isa.Reg, rowsPerLaunch)
	for r := 0; r < rowsPerLaunch; r++ {
		wv[r] = b.Ldg(wAddr, 0, 4)
		wAddr = b.IAdd(wAddr, colsBytes)
	}
	_ = colsBytes
	for r := 0; r < rowsPerLaunch; r++ {
		b.Sts(shAddr, cur, 0, 4)
		b.Bar()
		left := b.Lds(lAddr, 0, 4)
		right := b.Lds(rAddr, 0, 4)
		up := b.Lds(shAddr, 0, 4)
		best := b.IMin(b.IMin(left, right), up)
		b.MovTo(cur, b.IAdd(best, wv[r]))
		// A chain of integer work per row (cost clamping, penalty terms)
		// keeps the ALU fed between barriers, as the real kernel's index
		// arithmetic does.
		t := b.IMulImm(cur, 3)
		t = b.IAddImm(t, 17)
		t = b.Shr(t, 1)
		t = b.IMax(t, cur)
		t = b.IMin(t, b.IAddImm(cur, 64))
		t = b.Xor(t, best)
		b.MovTo(cur, b.IMax(cur, b.ISub(t, t)))
		b.Bar()
	}
	b.Stg(b.IMad(gid, four, result), cur, 0, 4)
	b.Exit()
	return b.MustBuild()
}

func pathfinderApp(suite string) *App {
	return &App{
		Name:  "pathfinder",
		Suite: suite,
		Description: "grid dynamic programming: shared-memory rows, good " +
			"arithmetic density, high retire",
		Run: func(ctx *RunCtx) error {
			const cols = 32 * 1024
			const rows = 8
			wall := ctx.Dev.Alloc(cols * rows * 4)
			result := ctx.Dev.Alloc(cols * 4)
			randIdx(ctx, wall, cols*rows, 16)
			randIdx(ctx, result, cols, 16)
			prog := pathfinderKernel("dynproc_kernel", rows)
			for pass := 0; pass < 2; pass++ {
				if err := ctx.Exec(launch1D(prog, cols, 256, wall, result, cols)); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func sradV1App() *App {
	app := makeSrad("rodinia", "srad_v1", 128, 24)
	app.Description = "speckle-reducing anisotropic diffusion, v1 kernels"
	return app
}

func sradV2App() *App {
	return &App{
		Name:  "srad_v2",
		Suite: "rodinia",
		Description: "SRAD v2: retiled stencil with high arithmetic " +
			"intensity — among the healthiest Rodinia kernels",
		Run: func(ctx *RunCtx) error {
			const w, h = 256, 256
			in := ctx.Dev.Alloc(w * h * 4)
			out := ctx.Dev.Alloc(w * h * 4)
			randF32(ctx, in, w*h, 0, 1)
			prog := stencil2DProgram("srad_cuda_v2", 24)
			l := &kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: w / 32, Y: h / 4},
				Block:   kernel.Dim3{X: 32, Y: 4},
				Params:  []uint64{in, out, w, h},
			}
			for it := 0; it < 4; it++ {
				if err := ctx.Exec(l); err != nil {
					return err
				}
				in, out = out, in
				l.Params = []uint64{in, out, w, h}
			}
			return nil
		},
	}
}

func streamclusterApp() *App {
	return &App{
		Name:  "streamcluster",
		Suite: "rodinia",
		Description: "online clustering: bandwidth-bound distance streams " +
			"with an irregular assignment gather",
		Run: func(ctx *RunCtx) error {
			const n = 128 * 1024
			const k = 8
			in := ctx.Dev.Alloc(n * 4)
			out := ctx.Dev.Alloc(n * 4)
			idx := ctx.Dev.Alloc(n / 4 * k * 4)
			randF32(ctx, in, n, 0, 1)
			randIdx(ctx, idx, n/4*k, n)
			dist := streamProgram("pgain_dist", 2)
			assign := gatherProgram("pgain_assign", k, 1)
			if err := ctx.Exec(launch1D(dist, n, 256, in, out, n)); err != nil {
				return err
			}
			return ctx.Exec(launch1D(assign, n/4, 256, idx, in, out, n/4))
		},
	}
}
