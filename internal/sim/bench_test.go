package sim

import (
	"testing"

	"gputopdown/internal/gpu"
	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/obs"
)

// The tracer-nil/tracer-enabled pair quantifies the observability layer's
// overhead on the launch hot path. With no observer attached the hooks are
// single nil-guarded branches; with a tracer attached each launch pays for
// span construction and per-SM residency sampling.

func benchLaunch(b *testing.B, attach func(*Device)) {
	d := NewDevice(testSpec())
	if attach != nil {
		attach(d)
	}
	l := saxpyLaunch(d, 4096)
	d.MustLaunch(l) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchTracerNil is the baseline: no observer attached.
func BenchmarkLaunchTracerNil(b *testing.B) {
	benchLaunch(b, nil)
}

// BenchmarkLaunchObserverNilAttached: SetHooks(nil) — the explicit
// disabled path — must cost the same as the baseline.
func BenchmarkLaunchObserverNilAttached(b *testing.B) {
	benchLaunch(b, func(d *Device) { d.SetHooks(nil) })
}

// BenchmarkLaunchTracerEnabled: full tracer and metrics registry attached.
// The tracer is reset each iteration so event memory stays bounded.
func BenchmarkLaunchTracerEnabled(b *testing.B) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	benchLaunchReset(b, tr, reg)
}

func benchLaunchReset(b *testing.B, tr *obs.Tracer, reg *obs.Registry) {
	d := NewDevice(testSpec())
	d.SetHooks(obs.NewHooks(tr, reg, nil))
	l := saxpyLaunch(d, 4096)
	d.MustLaunch(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Reset()
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchMetricsOnly: registry attached but no tracer — the common
// production configuration (cheap counters, no event stream).
func BenchmarkLaunchMetricsOnly(b *testing.B) {
	benchLaunch(b, func(d *Device) { d.SetHooks(obs.NewHooks(nil, obs.NewRegistry(), nil)) })
}

// The Naive/FastForward pair quantifies the production engine's wall-clock
// win over the reference device on a memory-bound kernel (serialized
// DRAM-latency load chains — the workload class the paper's case studies are
// dominated by). Results are bit-identical between the two; only host time
// differs.

func benchEngine(b *testing.B, fastForward bool) {
	d := NewDevice(testSpec())
	d.SetReference(!fastForward)
	l := memBoundLaunch(d, 32, 0)
	d.MustLaunch(l) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchNaive runs the reference device: every busy SM ticked on
// every simulated cycle, every resident warp classified on every tick.
func BenchmarkLaunchNaive(b *testing.B) {
	benchEngine(b, false)
}

// BenchmarkLaunchFastForward jumps over provably idle cycle spans.
func BenchmarkLaunchFastForward(b *testing.B) {
	benchEngine(b, true)
}

// computeBoundLaunch is an ALU-bound kernel over a whole device: two blocks
// of 256 threads per SM, each thread running 32 iterations of an FFMA, an
// ISETP on its lane's loop phase, a MUFU.SIN of the warp-uniform loop
// counter (one evaluation per warp, as in shoc/s3d) and the SEL of the two
// results — the instruction mix of the compute-bound suite apps, costing the
// scheduler rather than the host's math library.
func computeBoundLaunch(d *Device) *kernel.Launch {
	b := kernel.NewBuilder("computebound")
	gid := b.GlobalIDX()
	x := b.I2F(gid)
	y := b.I2F(b.AndImm(gid, 7))
	i := b.ForImm(0, 32, 1)
	p := b.ISetpImm(isa.CmpLT, b.AndImm(b.IAdd(i, gid), 3), 2)
	b.MovTo(x, b.Sel(p, b.FFma(x, y, x), b.Mufu(isa.MufuSIN, b.I2F(i))))
	b.EndFor()
	b.Stg(b.IAdd(b.Param(0), b.Shl(gid, 2)), x, 0, 4)
	b.Exit()
	blocks := 2 * d.Spec.SMs
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: blocks},
		Block:   kernel.Dim3{X: 256},
		Params:  []uint64{d.Alloc(blocks * 256 * 4)},
	}
}

// BenchmarkLaunchComputeBound times Device.Launch of computeBoundLaunch on a
// full RTX 4000 and reports the host cost of one simulated warp instruction
// (ns/warp-inst), the unit cost that stays comparable across kernels and
// device sizes.
func BenchmarkLaunchComputeBound(b *testing.B) {
	d := NewDevice(gpu.QuadroRTX4000())
	l := computeBoundLaunch(d)
	r := d.MustLaunch(l) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*r.Counters.InstExecuted), "ns/warp-inst")
}

// memoryBoundLaunch is the GUPS pattern over a whole device: two blocks of
// 256 threads per SM, each thread reading its index (a coalesced load),
// then reading and writing the table word it names. The indices are
// scattered over an 8 MB table, twice the RTX 4000's L2, so nearly every
// table access is a scattered warp whose lines miss L1 and L2.
func memoryBoundLaunch(d *Device) *kernel.Launch {
	const tableWords = 1 << 21
	b := kernel.NewBuilder("gups")
	gid := b.GlobalIDX()
	r := b.Ldg(b.IMad(gid, b.MovImm(4), b.Param(1)), 0, 4)
	addr := b.IMad(b.And(r, b.Param(2)), b.MovImm(4), b.Param(0))
	b.Stg(addr, b.Xor(b.Ldg(addr, 0, 4), gid), 0, 4)
	b.Exit()
	n := 2 * d.Spec.SMs * 256
	idx := make([]uint32, n)
	x := uint32(2463534242)
	for i := range idx {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		idx[i] = x
	}
	idxs := d.Alloc(n * 4)
	d.Storage.WriteU32Slice(idxs, idx)
	return &kernel.Launch{
		Program: b.MustBuild(),
		Grid:    kernel.Dim3{X: n / 256},
		Block:   kernel.Dim3{X: 256},
		Params:  []uint64{d.Alloc(tableWords * 4), idxs, tableWords - 1},
	}
}

// BenchmarkLaunchMemoryBound times Device.Launch of memoryBoundLaunch on a
// full RTX 4000 and reports ns/warp-inst, as BenchmarkLaunchComputeBound
// does: the host cost of a warp instruction when most of them are
// scattered memory accesses.
func BenchmarkLaunchMemoryBound(b *testing.B) {
	d := NewDevice(gpu.QuadroRTX4000())
	l := memoryBoundLaunch(d)
	r := d.MustLaunch(l) // warm up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*r.Counters.InstExecuted), "ns/warp-inst")
}

// BenchmarkLaunchTiny times a cache flush and a four-block launch on a full
// RTX 4000 — one profiled launch of rodinia/gaussian's shape — and reports
// its host cost (ns/launch) and the SM ticks it took (ticks/launch): a cost
// that should follow the four blocks simulated, not the 36 SMs flushed.
func BenchmarkLaunchTiny(b *testing.B) {
	d := NewDevice(gpu.QuadroRTX4000())
	l := tinyStreamLaunch(d)
	d.FlushCaches()
	d.MustLaunch(l) // warm up
	var ticks uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.FlushCaches()
		if _, err := d.Launch(l); err != nil {
			b.Fatal(err)
		}
		ticks += d.LastLaunchTicks()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/launch")
	b.ReportMetric(float64(ticks)/float64(b.N), "ticks/launch")
}
