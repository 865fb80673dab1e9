package sm

import (
	"testing"

	"gputopdown/internal/isa"
)

// TestUniformLDCMatchesIndexed runs one sequence of constant loads twice:
// as c[Imm] with no index register, where the first active lane reads the
// bank and looks up the IMC for the whole warp, and as c[R2+Imm] with R2
// zero in every lane, where each lane does its own. The two must leave the
// same registers, the same IMC hit and miss counts and the same scoreboard
// entry (ready cycle and depIMC/depFixed class) after every instruction.
func TestUniformLDCMatchesIndexed(t *testing.T) {
	const dst, idx = isa.Reg(1), isa.Reg(2)
	type side struct {
		s *SM
		w *warp
	}
	var sides [2]side
	for i := range sides {
		s := testSM()
		for off := int64(0); off < 512; off += 8 {
			s.constBank.Write(off, uint64(0x0101010101010101*(off/8+1)), 8)
		}
		w := newWarp(0, 0, 0, nil, 0xFFFFFFFF, 4, 1)
		sides[i] = side{s, w}
	}
	uniform, indexed := sides[0], sides[1]

	now := uint64(10)
	for step, c := range []struct {
		off  int64
		size uint8
		mask uint32
	}{
		{0x40, 4, 0xFFFFFFFF}, // cold line: IMC miss
		{0x44, 4, 0xFFFFFFFF}, // same line: hit
		{0x48, 8, 0x0000FF00}, // partial mask, 8 bytes
		{0x100, 4, 0x80000000},
		{0x180, 4, 0}, // no active lane: no read, no lookup
		{0x180, 8, 0x00000001},
		{0x40, 4, 0xAAAAAAAA},
	} {
		before := uniform.w.regs[dst]
		in := isa.Instr{Op: isa.OpLDC, Dst: dst, Srcs: [3]isa.Reg{isa.RZ, isa.RZ, isa.RZ}, Imm: c.off, Size: c.size, Pred: isa.PT}
		ux, ub := uniform.s.execMemory(&uniform.s.subparts[0], uniform.w, &in, c.mask, now)
		in.Srcs[0] = idx
		ix, ib := indexed.s.execMemory(&indexed.s.subparts[0], indexed.w, &in, c.mask, now)
		if ux != ix || ub != ib {
			t.Errorf("step %d: uniform LDC returned (%d, %d), indexed (%d, %d)", step, ux, ub, ix, ib)
		}
		if uniform.w.regs[dst] != indexed.w.regs[dst] {
			t.Errorf("step %d: registers\nuniform %x\nindexed %x", step, uniform.w.regs[dst], indexed.w.regs[dst])
		}
		for lane, v := range uniform.w.regs[dst] {
			want := before[lane] // an inactive lane keeps its value
			if c.mask&(1<<lane) != 0 {
				want = uniform.s.constBank.Read(c.off, int(c.size))
			}
			if v != want {
				t.Errorf("step %d: lane %d holds %#x, want %#x", step, lane, v, want)
			}
		}
		us, is := uniform.s.dp.Stats(), indexed.s.dp.Stats()
		if us != is {
			t.Errorf("step %d: data-path stats %+v, indexed %+v", step, us, is)
		}
		if uniform.w.regReady[dst] != indexed.w.regReady[dst] || uniform.w.regDep[dst] != indexed.w.regDep[dst] {
			t.Errorf("step %d: scoreboard (%d, %v), indexed (%d, %v)", step,
				uniform.w.regReady[dst], uniform.w.regDep[dst], indexed.w.regReady[dst], indexed.w.regDep[dst])
		}
		wantKind := depFixed
		if step == 0 || step == 3 || step == 5 {
			wantKind = depIMC
		}
		if uniform.w.regDep[dst] != wantKind {
			t.Errorf("step %d: dependency class %v, want %v", step, uniform.w.regDep[dst], wantKind)
		}
		now += 50
	}
	st := uniform.s.dp.Stats()
	if st.ConstLoads != 6 || st.IMCMisses != 3 || st.IMCHits != 3 {
		t.Errorf("IMC saw %d loads, %d hits, %d misses; want 6, 3, 3", st.ConstLoads, st.IMCHits, st.IMCMisses)
	}
}
