// Package kernel represents GPU kernels for the simulator: the program (a
// sequence of mini-ISA instructions), the launch configuration (grid and
// block geometry, parameters), and a builder DSL with structured control flow
// that computes SIMT reconvergence points automatically — the role the
// compiler's SSY/BSSY instructions play on real NVIDIA hardware.
package kernel

import (
	"fmt"
	"strings"

	"gputopdown/internal/isa"
)

// WarpSize is the number of threads per warp on every NVIDIA architecture.
const WarpSize = 32

// MaxBlockThreads is the architectural limit on threads per block.
const MaxBlockThreads = 1024

// Dim3 is a CUDA-style 3-dimensional extent. Zero components are treated as 1
// by Norm, so Dim3{X: 256} is a valid 1-D shape.
type Dim3 struct {
	X, Y, Z int
}

// Norm returns d with zero components replaced by 1.
func (d Dim3) Norm() Dim3 {
	if d.X == 0 {
		d.X = 1
	}
	if d.Y == 0 {
		d.Y = 1
	}
	if d.Z == 0 {
		d.Z = 1
	}
	return d
}

// Count returns the total number of elements in the extent.
func (d Dim3) Count() int {
	d = d.Norm()
	return d.X * d.Y * d.Z
}

// String implements fmt.Stringer.
func (d Dim3) String() string {
	d = d.Norm()
	return fmt.Sprintf("(%d,%d,%d)", d.X, d.Y, d.Z)
}

// Program is a compiled kernel: straight-line instruction storage plus the
// static resource requirements that constrain SM occupancy.
type Program struct {
	Name string
	// Instrs is the instruction stream; branch targets are indices into it.
	Instrs []isa.Instr
	// NumRegs is the number of general-purpose registers each thread uses.
	NumRegs int
	// SharedBytes is the static shared-memory allocation per block.
	SharedBytes int
	// LocalBytes is the per-thread local (spill) space.
	LocalBytes int
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// Validate checks the structural invariants the simulator relies on.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("kernel: program has no name")
	}
	if len(p.Instrs) == 0 {
		return fmt.Errorf("kernel %s: empty program", p.Name)
	}
	if p.NumRegs < 1 || p.NumRegs > isa.MaxRegs {
		return fmt.Errorf("kernel %s: NumRegs %d out of range [1,%d]", p.Name, p.NumRegs, isa.MaxRegs)
	}
	hasExit := false
	for i, in := range p.Instrs {
		if err := in.Validate(len(p.Instrs)); err != nil {
			return fmt.Errorf("kernel %s: instr %d (%s): %w", p.Name, i, in.Op, err)
		}
		if in.Op == isa.OpEXIT {
			hasExit = true
		}
	}
	if !hasExit {
		return fmt.Errorf("kernel %s: program has no EXIT", p.Name)
	}
	if last := p.Instrs[len(p.Instrs)-1]; last.Op != isa.OpEXIT && last.Op != isa.OpBRA {
		return fmt.Errorf("kernel %s: program falls off the end (last op %s)", p.Name, last.Op)
	}
	return nil
}

// Disassemble renders the program as numbered SASS-flavoured lines.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "// %s: %d instrs, %d regs, %dB shared, %dB local\n",
		p.Name, len(p.Instrs), p.NumRegs, p.SharedBytes, p.LocalBytes)
	for i, in := range p.Instrs {
		fmt.Fprintf(&sb, "%4d: %s\n", i, in.String())
	}
	return sb.String()
}

// Launch is one kernel invocation: which program, with what geometry and
// parameters. Params are copied into the device constant bank before
// execution (as the CUDA driver does), so kernels read them through LDC.
type Launch struct {
	Program *Program
	Grid    Dim3
	Block   Dim3
	// Params are 64-bit kernel parameters (pointers and scalars).
	Params []uint64
	// DynamicSharedBytes is added to the program's static shared allocation.
	DynamicSharedBytes int
}

// BlockThreads returns threads per block.
func (l *Launch) BlockThreads() int { return l.Block.Count() }

// WarpsPerBlock returns warps per block (rounded up).
func (l *Launch) WarpsPerBlock() int {
	return (l.BlockThreads() + WarpSize - 1) / WarpSize
}

// NumBlocks returns the total grid size in blocks.
func (l *Launch) NumBlocks() int { return l.Grid.Count() }

// TotalThreads returns grid size in threads.
func (l *Launch) TotalThreads() int { return l.NumBlocks() * l.BlockThreads() }

// SharedBytes returns the total per-block shared memory footprint.
func (l *Launch) SharedBytes() int {
	return l.Program.SharedBytes + l.DynamicSharedBytes
}

// Validate checks launch-configuration invariants.
func (l *Launch) Validate() error {
	if l.Program == nil {
		return fmt.Errorf("kernel: launch has no program")
	}
	if err := l.Program.Validate(); err != nil {
		return err
	}
	bt := l.BlockThreads()
	if bt < 1 || bt > MaxBlockThreads {
		return fmt.Errorf("kernel %s: block %s has %d threads, want [1,%d]",
			l.Program.Name, l.Block, bt, MaxBlockThreads)
	}
	if l.NumBlocks() < 1 {
		return fmt.Errorf("kernel %s: empty grid %s", l.Program.Name, l.Grid)
	}
	if len(l.Params) > MaxParams {
		return fmt.Errorf("kernel %s: %d parameters, want at most %d (more would overwrite constant data at ParamSpace)",
			l.Program.Name, len(l.Params), MaxParams)
	}
	return nil
}

// ParamBase is the constant-bank offset at which launch parameters are
// materialised, mirroring CUDA's c[0x0][0x160]-style parameter space. User
// constant data written by the host must live at ParamSpace or above, so a
// launch has at most MaxParams 8-byte parameters.
const (
	ParamBase  = 0x160
	ParamSpace = 0x1000
	MaxParams  = (ParamSpace - ParamBase) / 8
)

// ParamOffset returns the constant-bank offset of the i-th launch parameter.
func ParamOffset(i int) int64 { return ParamBase + int64(i)*8 }
