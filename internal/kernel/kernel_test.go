package kernel

import (
	"strings"
	"testing"

	"gputopdown/internal/isa"
)

func TestDim3Norm(t *testing.T) {
	d := Dim3{X: 4}
	if got := d.Norm(); got != (Dim3{4, 1, 1}) {
		t.Errorf("Norm = %v", got)
	}
	if d.Count() != 4 {
		t.Errorf("Count = %d", d.Count())
	}
	if (Dim3{2, 3, 4}).Count() != 24 {
		t.Error("Count of (2,3,4) != 24")
	}
	if (Dim3{}).Count() != 1 {
		t.Error("Count of zero Dim3 != 1")
	}
}

func TestBuilderSimpleKernel(t *testing.T) {
	b := NewBuilder("simple")
	ptr := b.Param(0)
	gid := b.GlobalIDX()
	addr := b.IMad(gid, b.MovImm(4), ptr)
	v := b.Ldg(addr, 0, 4)
	v2 := b.IAddImm(v, 1)
	b.Stg(addr, v2, 0, 4)
	b.Exit()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() == 0 || p.NumRegs == 0 {
		t.Fatalf("bad program: %+v", p)
	}
	if p.Instrs[p.Len()-1].Op != isa.OpEXIT {
		t.Error("program does not end with EXIT")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestBuilderAppendsExit(t *testing.T) {
	b := NewBuilder("noexit")
	b.MovImm(1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[p.Len()-1].Op != isa.OpEXIT {
		t.Error("Build did not append EXIT")
	}
}

func TestIfEndIfPatching(t *testing.T) {
	b := NewBuilder("if")
	x := b.MovImm(1)
	p := b.ISetpImm(isa.CmpGT, x, 0)
	b.If(p)
	b.MovImm(2)
	b.EndIf()
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Find the BRA.
	var bra *isa.Instr
	var braIdx int
	for i := range prog.Instrs {
		if prog.Instrs[i].Op == isa.OpBRA {
			bra = &prog.Instrs[i]
			braIdx = i
			break
		}
	}
	if bra == nil {
		t.Fatal("If emitted no branch")
	}
	if !bra.PredNeg {
		t.Error("If branch must be on the negated predicate")
	}
	// Target and reconvergence point are the instruction after the region:
	// the MOV32I body is one instruction.
	want := braIdx + 2
	if bra.Target != want || bra.Recon != want {
		t.Errorf("If branch target/recon = %d/%d, want %d", bra.Target, bra.Recon, want)
	}
}

func TestIfElsePatching(t *testing.T) {
	b := NewBuilder("ifelse")
	x := b.MovImm(1)
	p := b.ISetpImm(isa.CmpGT, x, 0)
	b.If(p)
	b.MovImm(2) // then body
	b.Else()
	b.MovImm(3) // else body
	b.EndIf()
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var bras []int
	for i := range prog.Instrs {
		if prog.Instrs[i].Op == isa.OpBRA {
			bras = append(bras, i)
		}
	}
	if len(bras) != 2 {
		t.Fatalf("want 2 branches, got %d", len(bras))
	}
	ifBra, elseJump := prog.Instrs[bras[0]], prog.Instrs[bras[1]]
	// If branch lands at the start of the else body (after the else jump).
	if ifBra.Target != bras[1]+1 {
		t.Errorf("If branch target = %d, want %d", ifBra.Target, bras[1]+1)
	}
	end := bras[1] + 2 // else body is one instruction
	if ifBra.Recon != end {
		t.Errorf("If branch recon = %d, want %d", ifBra.Recon, end)
	}
	if elseJump.Pred != isa.PT || elseJump.Target != end {
		t.Errorf("else jump = %+v, want unconditional to %d", elseJump, end)
	}
}

func TestForLoopShape(t *testing.T) {
	b := NewBuilder("loop")
	limit := b.MovImm(10)
	i := b.For(0, limit, 1)
	b.IAddImm(i, 0) // body uses counter
	b.EndFor()
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var exitBra, backBra *isa.Instr
	for k := range prog.Instrs {
		in := &prog.Instrs[k]
		if in.Op != isa.OpBRA {
			continue
		}
		if in.Pred == isa.PT {
			backBra = in
		} else {
			exitBra = in
		}
	}
	if exitBra == nil || backBra == nil {
		t.Fatal("loop missing exit or back branch")
	}
	if backBra.Target >= len(prog.Instrs) || prog.Instrs[backBra.Target].Op != isa.OpISETP {
		t.Errorf("back edge should land on the top ISETP test, lands on %v", prog.Instrs[backBra.Target].Op)
	}
	if exitBra.Target != exitBra.Recon {
		t.Errorf("loop exit branch target %d != recon %d", exitBra.Target, exitBra.Recon)
	}
}

func TestBreakIfPatchesToLoopEnd(t *testing.T) {
	b := NewBuilder("break")
	limit := b.MovImm(100)
	i := b.For(0, limit, 1)
	p := b.ISetpImm(isa.CmpGT, i, 5)
	b.BreakIf(p, false)
	b.EndFor()
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// All conditional branches must land inside the program.
	for idx, in := range prog.Instrs {
		if in.Op == isa.OpBRA && (in.Target < 0 || in.Target > len(prog.Instrs)) {
			t.Errorf("instr %d: branch target %d out of range", idx, in.Target)
		}
	}
}

func TestUnbalancedControlFlowErrors(t *testing.T) {
	b := NewBuilder("bad")
	x := b.MovImm(1)
	b.If(b.ISetpImm(isa.CmpGT, x, 0))
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted unclosed If")
	}

	b2 := NewBuilder("bad2")
	b2.EndIf()
	if _, err := b2.Build(); err == nil {
		t.Error("Build accepted EndIf without If")
	}

	b3 := NewBuilder("bad3")
	b3.EndFor()
	if _, err := b3.Build(); err == nil {
		t.Error("Build accepted EndFor without For")
	}

	b4 := NewBuilder("bad4")
	p := b4.ISetpImm(isa.CmpGT, b4.MovImm(1), 0)
	b4.BreakIf(p, false)
	if _, err := b4.Build(); err == nil {
		t.Error("Build accepted BreakIf outside For")
	}
}

func TestForZeroStepErrors(t *testing.T) {
	b := NewBuilder("zstep")
	b.For(0, b.MovImm(1), 0)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted zero-step For")
	}
}

func TestPredRotation(t *testing.T) {
	b := NewBuilder("preds")
	seen := map[isa.PredReg]bool{}
	for i := 0; i < isa.NumPreds; i++ {
		p := b.Pred()
		if p == isa.PT {
			t.Fatal("allocator returned PT")
		}
		seen[p] = true
	}
	if len(seen) != isa.NumPreds {
		t.Errorf("allocator produced %d distinct predicates, want %d", len(seen), isa.NumPreds)
	}
	if b.Pred() != isa.P0 {
		t.Error("allocator did not wrap to P0")
	}
}

func TestDeclSharedAlignment(t *testing.T) {
	b := NewBuilder("sh")
	off0 := b.DeclShared(12)
	off1 := b.DeclShared(4)
	if off0 != 0 {
		t.Errorf("first shared offset = %d", off0)
	}
	if off1%8 != 0 {
		t.Errorf("second shared offset %d not 8-byte aligned", off1)
	}
	b.Exit()
	p, _ := b.Build()
	if p.SharedBytes < 16 {
		t.Errorf("SharedBytes = %d, want >= 16", p.SharedBytes)
	}
}

func TestLaunchValidation(t *testing.T) {
	b := NewBuilder("k")
	b.Exit()
	prog := b.MustBuild()

	good := &Launch{Program: prog, Grid: Dim3{X: 4}, Block: Dim3{X: 128}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid launch rejected: %v", err)
	}
	if good.WarpsPerBlock() != 4 {
		t.Errorf("WarpsPerBlock = %d", good.WarpsPerBlock())
	}
	if good.TotalThreads() != 512 {
		t.Errorf("TotalThreads = %d", good.TotalThreads())
	}

	tooBig := &Launch{Program: prog, Grid: Dim3{X: 1}, Block: Dim3{X: 2048}}
	if err := tooBig.Validate(); err == nil {
		t.Error("block of 2048 threads accepted")
	}
	noProg := &Launch{Grid: Dim3{X: 1}, Block: Dim3{X: 32}}
	if err := noProg.Validate(); err == nil {
		t.Error("launch without program accepted")
	}

	// The 468th parameter is the last below ParamSpace; a 469th would be
	// written over the app's constant data there.
	if MaxParams != 468 || ParamOffset(MaxParams-1)+8 != ParamSpace {
		t.Errorf("MaxParams = %d, want 468 ending at ParamSpace", MaxParams)
	}
	full := &Launch{Program: prog, Grid: Dim3{X: 1}, Block: Dim3{X: 32}, Params: make([]uint64, MaxParams)}
	if err := full.Validate(); err != nil {
		t.Errorf("launch with %d parameters rejected: %v", MaxParams, err)
	}
	full.Params = append(full.Params, 0)
	if err := full.Validate(); err == nil || !strings.Contains(err.Error(), "469 parameters") {
		t.Errorf("launch with 469 parameters: Validate = %v, want an error counting them", err)
	}
}

func TestProgramValidateRejectsEmptyAndFallthrough(t *testing.T) {
	p := &Program{Name: "e", NumRegs: 1}
	if err := p.Validate(); err == nil {
		t.Error("empty program accepted")
	}
	p2 := &Program{Name: "f", NumRegs: 1, Instrs: []isa.Instr{{Op: isa.OpIADD, Dst: isa.R(0)}}}
	if err := p2.Validate(); err == nil {
		t.Error("program without EXIT accepted")
	}
}

func TestDisassembleContainsName(t *testing.T) {
	b := NewBuilder("disasm_me")
	b.MovImm(7)
	b.Exit()
	p := b.MustBuild()
	d := p.Disassemble()
	if !strings.Contains(d, "disasm_me") || !strings.Contains(d, "MOV32I") || !strings.Contains(d, "EXIT") {
		t.Errorf("disassembly missing content:\n%s", d)
	}
}

func TestParamOffsets(t *testing.T) {
	if ParamOffset(0) != ParamBase {
		t.Error("param 0 not at base")
	}
	if ParamOffset(3) != ParamBase+24 {
		t.Error("param stride != 8")
	}
	if ParamOffset(100) >= ParamSpace {
		t.Error("reasonable param count exceeds reserved space")
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder("sticky")
	b.EndIf() // error
	before := b.Here()
	b.MovImm(1) // must be a no-op after error
	if b.Here() != before {
		t.Error("builder kept emitting after error")
	}
	if b.Err() == nil {
		t.Error("Err() did not surface the error")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic on invalid program")
		}
	}()
	b := NewBuilder("panic")
	b.EndFor()
	b.MustBuild()
}

func TestForNegativeStepErrors(t *testing.T) {
	b := NewBuilder("negstep")
	b.For(10, b.MovImm(0), -1)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted negative-step For (would never terminate)")
	}
}

func TestNestedBreakTargetsInnermostLoop(t *testing.T) {
	b := NewBuilder("nested_break")
	outer := b.For(0, b.MovImm(4), 1)
	_ = outer
	inner := b.For(0, b.MovImm(8), 1)
	p := b.ISetpImm(isa.CmpGT, inner, 2)
	b.BreakIf(p, false)
	b.EndFor()
	b.EndFor()
	b.Exit()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The break branch must land strictly before the outer EndFor's
	// increment, i.e. inside the outer loop body.
	var breakTarget = -1
	braCount := 0
	for _, in := range prog.Instrs {
		if in.Op == isa.OpBRA && in.Pred != isa.PT {
			braCount++
			if braCount == 3 { // outer test, inner test, then the break
				breakTarget = in.Target
			}
		}
	}
	if breakTarget < 0 || breakTarget >= prog.Len() {
		t.Fatalf("break target %d out of range", breakTarget)
	}
}

// TestFNV: FNV is 64-bit FNV-1a (the published test vectors), Mix folds a
// word in as its eight little-endian bytes, and the program and launch
// hashes built on it keep their recorded values.
func TestFNV(t *testing.T) {
	for s, want := range map[string]uint64{"": 0xcbf29ce484222325, "a": 0xaf63dc4c8601ec8c, "foobar": 0x85944171f73967e8} {
		h := NewFNV()
		h.MixString(s)
		if uint64(h) != want {
			t.Errorf("FNV-1a(%q) = %#x, want %#x", s, uint64(h), want)
		}
	}
	word, bytes := NewFNV(), NewFNV()
	word.Mix(0x0807060504030201)
	bytes.MixString("\x01\x02\x03\x04\x05\x06\x07\x08")
	if word != bytes {
		t.Errorf("Mix = %#x, the hash of its little-endian bytes %#x", uint64(word), uint64(bytes))
	}

	b := NewBuilder("pin")
	x := b.GlobalIDX()
	b.Stg(b.Param(0), x, 0, 4)
	b.Exit()
	l := &Launch{Program: b.MustBuild(), Grid: Dim3{X: 3}, Block: Dim3{X: 64}, Params: []uint64{4096}}
	if got := l.Program.Fingerprint(); got != 0xa7e7a8ae32ba388b {
		t.Errorf("Fingerprint = %#x, want the recorded 0xa7e7a8ae32ba388b", got)
	}
	if got := l.ConfigHash(); got != 0x3b5704b7359c1508 {
		t.Errorf("ConfigHash = %#x, want the recorded 0x3b5704b7359c1508", got)
	}
}
