package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sm"
)

// genProgram builds a random but well-formed, terminating kernel: bounded
// structured control flow, arithmetic over live registers, and memory
// accesses confined to a scratch buffer indexed by (gid mod bufN).
func genProgram(rng *rand.Rand, name string, bufN int64) *kernel.Program {
	b := kernel.NewBuilder(name)
	buf := b.Param(0)
	gid := b.GlobalIDX()
	idx := b.AndImm(gid, bufN-1) // bufN is a power of two
	addr := b.IMad(idx, b.MovImm(4), buf)
	live := []isa.Reg{gid, idx, b.MovImm(int64(rng.Intn(100)))}
	pick := func() isa.Reg { return live[rng.Intn(len(live))] }

	depth := 0
	n := 10 + rng.Intn(40)
	for i := 0; i < n; i++ {
		switch op := rng.Intn(12); {
		case op < 4: // arithmetic
			switch rng.Intn(4) {
			case 0:
				live = append(live, b.IAdd(pick(), pick()))
			case 1:
				live = append(live, b.IMulImm(pick(), int64(1+rng.Intn(7))))
			case 2:
				live = append(live, b.Xor(pick(), pick()))
			case 3:
				live = append(live, b.IMad(pick(), pick(), pick()))
			}
		case op < 6: // float
			f := b.I2F(pick())
			live = append(live, b.FFma(f, b.FConst(rng.Float32()), f))
		case op == 6: // load
			live = append(live, b.Ldg(addr, 0, 4))
		case op == 7: // store
			b.Stg(addr, pick(), 0, 4)
		case op == 8 && depth < 2: // if region
			p := b.ISetpImm(isa.CmpGT, b.AndImm(pick(), 3), int64(rng.Intn(3)))
			b.If(p)
			live = append(live, b.IAddImm(pick(), 1))
			if rng.Intn(2) == 0 {
				b.Else()
				live = append(live, b.IAddImm(pick(), 2))
			}
			b.EndIf()
		case op == 9 && depth == 0: // bounded loop
			i := b.ForImm(0, int64(1+rng.Intn(6)), 1)
			live = append(live, b.IAdd(i, pick()))
			b.EndFor()
		case op == 10:
			live = append(live, b.Mufu(isa.MufuFunc(rng.Intn(7)), b.I2F(pick())))
		default:
			live = append(live, b.IAddImm(pick(), int64(rng.Intn(9))))
		}
		if len(live) > 24 {
			live = live[len(live)-12:]
		}
	}
	b.Stg(addr, pick(), 0, 4)
	b.Exit()
	return b.MustBuild()
}

// TestFuzzDeterminism runs randomly generated kernels twice on fresh devices
// and demands bit-identical counters — the core soundness property behind
// multi-pass profiler replay.
func TestFuzzDeterminism(t *testing.T) {
	const bufN = 1024
	for trial := 0; trial < 12; trial++ {
		seed := int64(1000 + trial)
		prog := genProgram(rand.New(rand.NewSource(seed)), "fuzz", bufN)
		run := func() sm.Counters {
			d := NewDevice(testSpec())
			buf := d.Alloc(bufN * 4)
			host := make([]uint32, bufN)
			r := rand.New(rand.NewSource(seed))
			for i := range host {
				host[i] = uint32(r.Intn(1 << 20))
			}
			d.Storage.WriteU32Slice(buf, host)
			l := &kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: 3},
				Block:   kernel.Dim3{X: 96},
				Params:  []uint64{buf},
			}
			return d.MustLaunch(l).Counters
		}
		a, b := run(), run()
		if a != b {
			t.Fatalf("seed %d: nondeterministic execution\n%+v\n%+v", seed, a, b)
		}
		if a.StateSum() != a.ActiveWarpCycles {
			t.Fatalf("seed %d: state closure violated: %d != %d", seed, a.StateSum(), a.ActiveWarpCycles)
		}
		if a.InstIssued < a.InstExecuted {
			t.Fatalf("seed %d: issued < executed", seed)
		}
	}
}

// TestFuzzEngineEquivalence diffs the reference device against a production
// device on randomly generated kernels: full RunResults
// (cycles, counters, per-SM deltas, trace samples) must be bit-identical,
// with tracing both off and on an interval chosen to land samples mid-skip.
func TestFuzzEngineEquivalence(t *testing.T) {
	const bufN = 1024
	for trial := 0; trial < 16; trial++ {
		seed := int64(4000 + trial)
		prog := genProgram(rand.New(rand.NewSource(seed)), "fuzzff", bufN)
		var traceInterval uint64
		if trial%2 == 1 {
			traceInterval = 32
		}
		run := func(fastForward bool) *RunResult {
			d := NewDevice(testSpec())
			d.SetReference(!fastForward)
			if traceInterval > 0 {
				d.EnableTrace(traceInterval)
			}
			buf := d.Alloc(bufN * 4)
			host := make([]uint32, bufN)
			r := rand.New(rand.NewSource(seed))
			for i := range host {
				host[i] = uint32(r.Intn(1 << 20))
			}
			d.Storage.WriteU32Slice(buf, host)
			l := &kernel.Launch{
				Program: prog,
				Grid:    kernel.Dim3{X: 5},
				Block:   kernel.Dim3{X: 96},
				Params:  []uint64{buf},
			}
			return d.MustLaunch(l)
		}
		naive := run(false)
		ff := run(true)
		if !reflect.DeepEqual(naive, ff) {
			t.Fatalf("seed %d (trace=%d): naive/ff diverge\nnaive: cycles=%d %+v\nff:    cycles=%d %+v",
				seed, traceInterval, naive.Cycles, naive.Counters, ff.Cycles, ff.Counters)
		}
	}
}

// TestFuzzPascalToo runs generated kernels on the Pascal model to cover the
// 4-subpartition configuration.
func TestFuzzPascalToo(t *testing.T) {
	prog := genProgram(rand.New(rand.NewSource(7)), "fuzzp", 512)
	d := NewDevice(testSpecPascal())
	buf := d.Alloc(512 * 4)
	l := &kernel.Launch{
		Program: prog,
		Grid:    kernel.Dim3{X: 4},
		Block:   kernel.Dim3{X: 128},
		Params:  []uint64{buf},
	}
	res := d.MustLaunch(l)
	if res.Counters.InstExecuted == 0 {
		t.Error("no instructions executed on Pascal model")
	}
	if res.Counters.StateSum() != res.Counters.ActiveWarpCycles {
		t.Error("state closure violated on Pascal model")
	}
}
