package check

import (
	"math/rand"
	"testing"

	"gputopdown/internal/isa"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
)

// fuzzProgram builds a random terminating kernel (structured control flow,
// arithmetic, scratch-buffer memory traffic) — the same shape the simulator's
// own fuzz determinism tests use, regenerated here because sim does not
// export its generator.
func fuzzProgram(rng *rand.Rand, bufN int64) *kernel.Program {
	b := kernel.NewBuilder("invfuzz")
	buf := b.Param(0)
	gid := b.GlobalIDX()
	idx := b.AndImm(gid, bufN-1)
	addr := b.IMad(idx, b.MovImm(4), buf)
	live := []isa.Reg{gid, idx, b.MovImm(int64(rng.Intn(100)))}
	pick := func() isa.Reg { return live[rng.Intn(len(live))] }
	n := 8 + rng.Intn(32)
	for i := 0; i < n; i++ {
		switch op := rng.Intn(10); {
		case op < 3:
			live = append(live, b.IAdd(pick(), pick()))
		case op < 5:
			f := b.I2F(pick())
			live = append(live, b.FFma(f, b.FConst(rng.Float32()), f))
		case op == 5:
			live = append(live, b.Ldg(addr, 0, 4))
		case op == 6:
			b.Stg(addr, pick(), 0, 4)
		case op == 7:
			p := b.ISetpImm(isa.CmpGT, b.AndImm(pick(), 3), int64(rng.Intn(3)))
			b.If(p)
			live = append(live, b.IAddImm(pick(), 1))
			b.EndIf()
		case op == 8:
			it := b.ForImm(0, int64(1+rng.Intn(5)), 1)
			live = append(live, b.IAdd(it, pick()))
			b.EndFor()
		default:
			live = append(live, b.IMulImm(pick(), int64(1+rng.Intn(7))))
		}
		if len(live) > 16 {
			live = live[len(live)-8:]
		}
	}
	b.Stg(addr, pick(), 0, 4)
	b.Exit()
	return b.MustBuild()
}

// FuzzInvariants launches randomly generated kernels with the in-loop checker
// attached: whatever the program does, the conservation laws must hold, on
// both a production and a reference device. The CI fuzz smoke runs
// this briefly; longer local runs explore more programs.
func FuzzInvariants(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, false)
	}
	f.Add(int64(5), true)
	f.Fuzz(func(t *testing.T, seed int64, reference bool) {
		const bufN = 512
		prog := fuzzProgram(rand.New(rand.NewSource(seed)), bufN)
		inv := New()
		d := sim.NewDevice(testSpec())
		d.SetChecker(inv)
		d.SetReference(reference)
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
		res := d.MustLaunch(l)
		if err := inv.Err(); err != nil {
			t.Fatalf("seed %d reference %v: invariants violated: %v", seed, reference, err)
		}
		if res.Counters.InstExecuted == 0 {
			t.Fatalf("seed %d: generated kernel executed nothing", seed)
		}
	})
}
