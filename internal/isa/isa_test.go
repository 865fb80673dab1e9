package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpInfoCoversAllOpcodes(t *testing.T) {
	for op := Op(0); int(op) < NumOps; op++ {
		info := op.Info()
		if info.Name == "" {
			t.Errorf("opcode %d has no name", op)
		}
		if int(info.Pipe) >= NumPipes {
			t.Errorf("%s: invalid pipe %d", info.Name, info.Pipe)
		}
		if info.NumSrcs < 0 || info.NumSrcs > 3 {
			t.Errorf("%s: NumSrcs %d out of range", info.Name, info.NumSrcs)
		}
	}
}

func TestOpPipeAssignments(t *testing.T) {
	cases := []struct {
		op   Op
		pipe Pipe
	}{
		{OpIADD, PipeALU},
		{OpIMAD, PipeALU},
		{OpFADD, PipeFMA},
		{OpFFMA, PipeFMA},
		{OpDFMA, PipeFP64},
		{OpMUFU, PipeSFU},
		{OpLDG, PipeLSU},
		{OpSTG, PipeLSU},
		{OpLDC, PipeLSU},
		{OpLDS, PipeMIO},
		{OpSTS, PipeMIO},
		{OpSHFL, PipeMIO},
		{OpTEX, PipeTEX},
		{OpBRA, PipeCBU},
		{OpBAR, PipeCBU},
		{OpEXIT, PipeCBU},
	}
	for _, c := range cases {
		if got := c.op.Info().Pipe; got != c.pipe {
			t.Errorf("%s: pipe = %s, want %s", c.op, got, c.pipe)
		}
	}
}

func TestMemoryOpLoadsAndStores(t *testing.T) {
	cases := []struct {
		op    Op
		load  bool
		store bool
	}{
		{OpLDG, true, false},
		{OpSTG, false, true},
		{OpLDS, true, false},
		{OpSTS, false, true},
		{OpLDL, true, false},
		{OpSTL, false, true},
		{OpLDC, true, false},
		{OpTEX, true, false},
		{OpATOM, true, true},
		{OpRED, false, true},
	}
	for _, c := range cases {
		info := c.op.Info()
		if info.IsLoad != c.load || info.IsStore != c.store {
			t.Errorf("%s: load/store = %v/%v, want %v/%v", c.op, info.IsLoad, info.IsStore, c.load, c.store)
		}
	}
}

func TestRegConstruction(t *testing.T) {
	if R(0) != Reg(0) || R(254) != Reg(254) {
		t.Fatal("R(n) does not map identity for valid n")
	}
	defer func() {
		if recover() == nil {
			t.Error("R(255) should panic (RZ is not addressable via R)")
		}
	}()
	R(255)
}

func TestRegStrings(t *testing.T) {
	if RZ.String() != "RZ" {
		t.Errorf("RZ.String() = %q", RZ.String())
	}
	if R(7).String() != "R7" {
		t.Errorf("R(7).String() = %q", R(7).String())
	}
	if PT.String() != "PT" {
		t.Errorf("PT.String() = %q", PT.String())
	}
	if P3.String() != "P3" {
		t.Errorf("P3.String() = %q", P3.String())
	}
}

func TestSourceRegsSkipsRZ(t *testing.T) {
	in := Instr{Op: OpIMAD, Dst: R(4), Srcs: [3]Reg{R(1), RZ, R(2)}}
	got, n := in.SourceRegs()
	if n != 2 || got[0] != R(1) || got[1] != R(2) {
		t.Errorf("SourceRegs = %v (n=%d), want [R1 R2]", got, n)
	}
}

func TestSourceRegsAllocFree(t *testing.T) {
	in := Instr{Op: OpIMAD, Dst: R(4), Srcs: [3]Reg{R(1), R(2), R(3)}}
	var n int
	allocs := testing.AllocsPerRun(100, func() {
		_, n = in.SourceRegs()
	})
	if n != 3 {
		t.Fatalf("SourceRegs count = %d, want 3", n)
	}
	if allocs != 0 {
		t.Errorf("SourceRegs allocates %v per call, want 0", allocs)
	}
}

func TestValidateBranchBounds(t *testing.T) {
	in := Instr{Op: OpBRA, Pred: PT, Target: 10, Recon: 11}
	if err := in.Validate(12); err != nil {
		t.Errorf("valid branch rejected: %v", err)
	}
	in.Target = 12
	if err := in.Validate(12); err == nil {
		t.Error("out-of-range branch target accepted")
	}
	in.Target = 3
	in.Recon = -1
	if err := in.Validate(12); err == nil {
		t.Error("negative reconvergence point accepted")
	}
}

func TestValidateMemorySize(t *testing.T) {
	in := Instr{Op: OpLDG, Dst: R(0), Srcs: [3]Reg{R(1), RZ, RZ}, Size: 4, Pred: PT}
	if err := in.Validate(1); err != nil {
		t.Errorf("valid LDG rejected: %v", err)
	}
	in.Size = 3
	if err := in.Validate(1); err == nil {
		t.Error("LDG with size 3 accepted")
	}
}

func TestValidateSpecialReg(t *testing.T) {
	in := Instr{Op: OpS2R, Dst: R(0), Imm: int64(SRLaneID), Pred: PT}
	if err := in.Validate(1); err != nil {
		t.Errorf("valid S2R rejected: %v", err)
	}
	in.Imm = 99
	if err := in.Validate(1); err == nil {
		t.Error("S2R with bogus special register accepted")
	}
}

func TestDisassemblyShapes(t *testing.T) {
	cases := []struct {
		in   Instr
		want string // substring that must appear
	}{
		{Instr{Op: OpIADD, Dst: R(3), Srcs: [3]Reg{R(1), R(2), RZ}, Pred: PT}, "IADD R3, R1, R2"},
		{Instr{Op: OpMOV32, Dst: R(5), Imm: 0xff, Pred: PT}, "MOV32I R5, 0xff"},
		{Instr{Op: OpLDG, Dst: R(2), Srcs: [3]Reg{R(8), RZ, RZ}, Imm: 0x10, Size: 4, Pred: PT}, "LDG.32 R2, [R8+0x10]"},
		{Instr{Op: OpSTG, Srcs: [3]Reg{R(8), R(2), RZ}, Size: 8, Pred: PT}, "STG.64 [R8+0x0], R2"},
		{Instr{Op: OpBRA, Target: 7, Recon: 9, Pred: P1, PredNeg: true}, "@!P1 BRA 7"},
		{Instr{Op: OpISETP, PDst: P2, Cmp: CmpLT, Srcs: [3]Reg{R(0), R(1), RZ}, Pred: PT}, "ISETP.LT P2, R0, R1"},
		{Instr{Op: OpMUFU, Mufu: MufuSIN, Dst: R(4), Srcs: [3]Reg{R(3), RZ, RZ}, Pred: PT}, "MUFU.SIN R4, R3"},
		{Instr{Op: OpS2R, Dst: R(0), Imm: int64(SRTidX), Pred: PT}, "S2R R0, SR_TID.X"},
	}
	for _, c := range cases {
		got := c.in.String()
		if !strings.Contains(got, c.want) {
			t.Errorf("disasm %v = %q, want substring %q", c.in.Op, got, c.want)
		}
	}
}

func TestStringerTotality(t *testing.T) {
	// Every enum's String must be total, including out-of-range values.
	if Pipe(200).String() == "" ||
		CmpOp(200).String() == "" || MufuFunc(200).String() == "" ||
		AtomOp(200).String() == "" || Op(200).String() == "" ||
		SpecialReg(200).String() == "" {
		t.Error("a Stringer returned empty for out-of-range value")
	}
	for p := Pipe(0); int(p) < NumPipes; p++ {
		if p.String() == "" {
			t.Errorf("pipe %d has empty name", p)
		}
	}
}

// Property: SourceRegs never returns RZ and never returns more than the
// opcode's declared source count.
func TestSourceRegsProperty(t *testing.T) {
	f := func(opRaw uint8, s0, s1, s2 uint16) bool {
		op := Op(int(opRaw) % NumOps)
		in := Instr{Op: op, Srcs: [3]Reg{Reg(s0 % 256), Reg(s1 % 256), Reg(s2 % 256)}}
		regs, n := in.SourceRegs()
		if n > op.Info().NumSrcs {
			return false
		}
		for _, r := range regs[:n] {
			if r == RZ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
