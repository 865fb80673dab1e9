// Package gpu defines device specifications for the simulator. A Spec bundles
// everything the paper's Table IX reports for the two evaluation GPUs (GTX
// 1070 and Quadro RTX 4000) plus the microarchitectural parameters the
// pipeline model needs: cache geometries, execution-pipe lane widths,
// latencies and queue depths.
//
// The Top-Down methodology dispatches on compute capability: CC < 7.2 GPUs
// expose nvprof-style events+metrics, CC >= 7.2 the unified ncu metrics
// (paper §II.A); CC.UsesUnifiedMetrics encodes that split.
package gpu

import (
	"fmt"
	"sort"

	"gputopdown/internal/isa"
)

// WarpSize is the number of threads per warp.
const WarpSize = 32

// CC is a CUDA compute capability.
type CC struct {
	Major, Minor int
}

// String implements fmt.Stringer (e.g. "6.1").
func (c CC) String() string { return fmt.Sprintf("%d.%d", c.Major, c.Minor) }

// AtLeast reports whether c >= major.minor.
func (c CC) AtLeast(major, minor int) bool {
	if c.Major != major {
		return c.Major > major
	}
	return c.Minor >= minor
}

// UsesUnifiedMetrics reports whether the device uses the unified (ncu-style)
// metrics model. NVIDIA unified events and metrics starting with CC 7.2
// (paper §II.A); earlier capabilities use the nvprof events+metrics model.
func (c CC) UsesUnifiedMetrics() bool { return c.AtLeast(7, 2) }

// Spec describes a GPU device. Fields in the first block mirror the paper's
// Table IX; the rest parameterise the pipeline and memory models.
type Spec struct {
	Name         string
	Architecture string // "Pascal", "Turing", ...
	Compute      CC

	// Table IX characteristics.
	SMs                int
	SubpartitionsPerSM int
	CUDACores          int
	MemoryGB           int
	MemoryType         string
	PowerW             int

	// Dispatch and residency.
	WarpSlotsPerSubpartition int // resident warp contexts per subpartition
	MaxThreadsPerSM          int
	MaxBlocksPerSM           int
	RegistersPerSM           int // 32-bit registers per SM
	SharedMemPerSM           int // bytes

	// Clock, for cycle <-> time conversion.
	ClockMHz int

	// Instruction supply.
	InstrBytes int // encoded instruction width (8 on Pascal, 16 on Turing)
	ICacheSize int // per-SM L1 instruction cache bytes
	ICacheWays int
	// FetchCyclesPerLine is how long the SM's single fetch port is busy per
	// icache line; with more subpartitions sharing the port (Pascal), supply
	// pressure rises and no_instruction stalls grow.
	FetchCyclesPerLine int
	// DecodeDelay is the fetch-hit to issue-ready latency in cycles.
	DecodeDelay int

	// Data caches. All caches are sectored: LineSize bytes per line,
	// SectorSize bytes transferred per miss.
	L1Size     int // per-SM L1 data cache bytes
	L1Ways     int
	LineSize   int
	SectorSize int
	L2Size     int // device-wide L2 bytes
	L2Ways     int
	// L2Slices is the number of address-interleaved L2 partitions (and DRAM
	// channels behind them), as real GPUs slice the L2 across memory
	// partitions. Consecutive cache lines map to consecutive slices; each
	// slice is an independent L2Size/L2Slices cache backed by a channel with
	// 1/L2Slices of the DRAM bandwidth. Must be a power of two. The slicing
	// is a device property: cycle counts and stall attribution depend on it.
	L2Slices int

	// Constant path: a small immediate-constant cache (IMC) in front of a
	// constant bank.
	IMCSize       int
	IMCWays       int
	ConstBankSize int

	// Latencies in core cycles.
	ALULatency    int
	FMALatency    int
	FP64Latency   int
	SFULatency    int
	SharedLatency int
	L1Latency     int // L1 hit
	L2Latency     int // L1 miss, L2 hit (total)
	DRAMLatency   int // L2 miss (total)
	IMCHitLatency int
	IMCMissExtra  int // added on an immediate-constant cache miss
	BranchLatency int // branch-resolving cycles after a taken BRA issues
	TEXLatency    int

	// Execution-pipe lane widths per subpartition. A warp instruction
	// occupies its pipe for WarpSize/lanes cycles.
	PipeLanes [isa.NumPipes]int

	// Queue depths (entries) per subpartition. A full queue at issue is a
	// throttle stall; device memory itself is latency plus bandwidth.
	LGQueueDepth  int
	MIOQueueDepth int
	TEXQueueDepth int
	// DRAMBytesPerCycle is device memory bandwidth expressed per core cycle.
	DRAMBytesPerCycle float64

	// Register file banks per subpartition; simultaneous reads of distinct
	// registers in the same bank cost an extra cycle (classified "misc").
	RegFileBanks int

	// DivergenceMitigation in [0,1] models post-Volta independent thread
	// scheduling "stealing" work for idle lanes in divergent regions (paper
	// §IV.B); it only affects the thread-instruction count (warp
	// efficiency), not timing.
	DivergenceMitigation float64

	// SchedulingPolicy selects the warp scheduler: "gto" (greedy-then-
	// oldest) or "lrr" (loose round-robin).
	SchedulingPolicy string
}

// IPCMax returns the paper's IPC_MAX: the number of dispatch units per SM
// (§IV.C), i.e. the peak warp instructions a single SM can issue per cycle.
// Each subpartition has one dispatch unit, and the SM issues at most one
// warp per subpartition per cycle.
func (s *Spec) IPCMax() float64 { return float64(s.SubpartitionsPerSM) }

// WarpsPerSM returns the maximum resident warps per SM.
func (s *Spec) WarpsPerSM() int {
	return s.SubpartitionsPerSM * s.WarpSlotsPerSubpartition
}

// Validate checks internal consistency of the spec.
func (s *Spec) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("gpu: spec has no name")
	case s.SMs < 1:
		return fmt.Errorf("gpu %s: SMs = %d", s.Name, s.SMs)
	case s.SubpartitionsPerSM < 1:
		return fmt.Errorf("gpu %s: SubpartitionsPerSM = %d", s.Name, s.SubpartitionsPerSM)
	// The SM scheduler keeps sets of warp slots as 64-bit masks.
	case s.WarpSlotsPerSubpartition < 1 || s.WarpSlotsPerSubpartition > 64:
		return fmt.Errorf("gpu %s: WarpSlotsPerSubpartition = %d (want 1 to 64)", s.Name, s.WarpSlotsPerSubpartition)
	case s.MaxThreadsPerSM < WarpSize:
		return fmt.Errorf("gpu %s: MaxThreadsPerSM = %d", s.Name, s.MaxThreadsPerSM)
	case s.ClockMHz <= 0:
		return fmt.Errorf("gpu %s: ClockMHz = %d", s.Name, s.ClockMHz)
	// A cache line's valid sectors are a 32-bit mask.
	case s.LineSize <= 0 || s.SectorSize <= 0 || s.LineSize%s.SectorSize != 0 || s.LineSize/s.SectorSize > 32:
		return fmt.Errorf("gpu %s: line size %d / sector size %d", s.Name, s.LineSize, s.SectorSize)
	// The memory model splits addresses by shift and mask. SectorSize first:
	// it divides LineSize, so it can only be at fault when LineSize is too.
	case s.SectorSize&(s.SectorSize-1) != 0:
		return fmt.Errorf("gpu %s: SectorSize = %d (want a power of two)", s.Name, s.SectorSize)
	case s.LineSize&(s.LineSize-1) != 0:
		return fmt.Errorf("gpu %s: LineSize = %d (want a power of two)", s.Name, s.LineSize)
	case s.L1Size <= 0 || s.L2Size <= 0 || s.ICacheSize <= 0 || s.IMCSize <= 0:
		return fmt.Errorf("gpu %s: non-positive cache size", s.Name)
	case s.L2Slices < 1 || s.L2Slices&(s.L2Slices-1) != 0:
		return fmt.Errorf("gpu %s: L2Slices = %d (want a power of two)", s.Name, s.L2Slices)
	case s.L2Size%s.L2Slices != 0:
		return fmt.Errorf("gpu %s: L2Size %d not divisible by %d slices", s.Name, s.L2Size, s.L2Slices)
	case s.FetchCyclesPerLine < 1 || s.DecodeDelay < 1:
		return fmt.Errorf("gpu %s: fetch throughput/decode delay must be positive", s.Name)
	case s.SchedulingPolicy != "gto" && s.SchedulingPolicy != "lrr":
		return fmt.Errorf("gpu %s: unknown scheduling policy %q", s.Name, s.SchedulingPolicy)
	case s.DivergenceMitigation < 0 || s.DivergenceMitigation > 1:
		return fmt.Errorf("gpu %s: DivergenceMitigation = %g", s.Name, s.DivergenceMitigation)
	}
	for p, lanes := range s.PipeLanes {
		if lanes < 1 || lanes > WarpSize {
			return fmt.Errorf("gpu %s: pipe %s has %d lanes", s.Name, isa.Pipe(p), lanes)
		}
	}
	if s.LGQueueDepth < 1 || s.MIOQueueDepth < 1 || s.TEXQueueDepth < 1 {
		return fmt.Errorf("gpu %s: non-positive queue depth", s.Name)
	}
	// The models convert these to unsigned cycle counts and set/way counts:
	// a negative latency would wrap to ~2^64 cycles, a zero-way cache divides
	// by zero.
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"ALULatency", s.ALULatency, 0}, {"FMALatency", s.FMALatency, 0},
		{"FP64Latency", s.FP64Latency, 0}, {"SFULatency", s.SFULatency, 0},
		{"SharedLatency", s.SharedLatency, 0}, {"L1Latency", s.L1Latency, 0},
		{"L2Latency", s.L2Latency, 0}, {"DRAMLatency", s.DRAMLatency, 0},
		{"IMCHitLatency", s.IMCHitLatency, 0}, {"IMCMissExtra", s.IMCMissExtra, 0},
		{"BranchLatency", s.BranchLatency, 0}, {"TEXLatency", s.TEXLatency, 0},
		{"ICacheWays", s.ICacheWays, 1}, {"L1Ways", s.L1Ways, 1},
		{"L2Ways", s.L2Ways, 1}, {"IMCWays", s.IMCWays, 1},
		{"RegistersPerSM", s.RegistersPerSM, 1}, {"SharedMemPerSM", s.SharedMemPerSM, 1},
	} {
		if f.val < f.min {
			return fmt.Errorf("gpu %s: %s = %d (want >= %d)", s.Name, f.name, f.val, f.min)
		}
	}
	return nil
}

// WithSMs returns a copy of the spec with a different SM count, used to
// downscale devices for fast tests. L2 capacity is kept proportional so
// working-set behaviour scales with it.
func (s *Spec) WithSMs(n int) *Spec {
	c := *s
	c.Name = fmt.Sprintf("%s/%dsm", s.Name, n)
	c.L2Size = s.L2Size * n / s.SMs
	if c.L2Size < 64*1024 {
		c.L2Size = 64 * 1024
	}
	// Keep the scaled capacity an exact multiple of the slice granularity so
	// every slice gets the same whole number of lines.
	if g := c.L2Slices * c.LineSize; g > 0 {
		if r := c.L2Size % g; r != 0 {
			c.L2Size += g - r
		}
	}
	c.SMs = n
	return &c
}

// GTX1070 returns the NVIDIA GeForce GTX 1070 model (Pascal, CC 6.1) from
// the paper's Table IX.
func GTX1070() *Spec {
	s := &Spec{
		Name:         "NVIDIA GTX 1070",
		Architecture: "Pascal",
		Compute:      CC{6, 1},

		SMs:                15,
		SubpartitionsPerSM: 4,
		CUDACores:          1920,
		MemoryGB:           8,
		MemoryType:         "DDR5",
		PowerW:             150,

		WarpSlotsPerSubpartition: 16,
		MaxThreadsPerSM:          2048,
		MaxBlocksPerSM:           32,
		RegistersPerSM:           65536,
		SharedMemPerSM:           96 * 1024,

		ClockMHz: 1506,

		InstrBytes:         8,
		ICacheSize:         8 * 1024,
		ICacheWays:         4,
		FetchCyclesPerLine: 3,
		DecodeDelay:        4,

		L1Size:     48 * 1024,
		L1Ways:     4,
		LineSize:   128,
		SectorSize: 32,
		L2Size:     2 * 1024 * 1024,
		L2Ways:     16,
		L2Slices:   4,

		IMCSize:       2 * 1024,
		IMCWays:       4,
		ConstBankSize: 64 * 1024,

		ALULatency:    6,
		FMALatency:    6,
		FP64Latency:   8,
		SFULatency:    14,
		SharedLatency: 24,
		L1Latency:     32,
		L2Latency:     216,
		DRAMLatency:   440,
		IMCHitLatency: 4,
		IMCMissExtra:  180,
		BranchLatency: 8,
		TEXLatency:    80,

		PipeLanes: pipeLanes(map[isa.Pipe]int{
			isa.PipeALU:  32,
			isa.PipeFMA:  32,
			isa.PipeFP64: 1,
			isa.PipeSFU:  8,
			isa.PipeLSU:  8,
			isa.PipeMIO:  8,
			isa.PipeTEX:  2,
			isa.PipeCBU:  32,
		}),

		LGQueueDepth:      16,
		MIOQueueDepth:     8,
		TEXQueueDepth:     4,
		DRAMBytesPerCycle: 170,

		RegFileBanks: 4,

		DivergenceMitigation: 0,
		SchedulingPolicy:     "gto",
	}
	mustValidate(s)
	return s
}

// QuadroRTX4000 returns the NVIDIA Quadro RTX 4000 model (Turing, CC 7.5)
// from the paper's Table IX. The paper reports 2 SM subpartitions for this
// part and IPC_MAX follows from it.
func QuadroRTX4000() *Spec {
	s := &Spec{
		Name:         "NVIDIA Quadro RTX 4000",
		Architecture: "Turing",
		Compute:      CC{7, 5},

		SMs:                36,
		SubpartitionsPerSM: 2,
		CUDACores:          2304,
		MemoryGB:           8,
		MemoryType:         "DDR6",
		PowerW:             160,

		WarpSlotsPerSubpartition: 16,
		MaxThreadsPerSM:          1024,
		MaxBlocksPerSM:           16,
		RegistersPerSM:           65536,
		SharedMemPerSM:           64 * 1024,

		ClockMHz: 1545,

		InstrBytes:         16,
		ICacheSize:         16 * 1024,
		ICacheWays:         4,
		FetchCyclesPerLine: 1,
		DecodeDelay:        2,

		L1Size:     64 * 1024,
		L1Ways:     4,
		LineSize:   128,
		SectorSize: 32,
		L2Size:     4 * 1024 * 1024,
		L2Ways:     16,
		L2Slices:   4,

		IMCSize:       2 * 1024,
		IMCWays:       4,
		ConstBankSize: 64 * 1024,

		ALULatency:    4,
		FMALatency:    4,
		FP64Latency:   8,
		SFULatency:    12,
		SharedLatency: 22,
		L1Latency:     28,
		L2Latency:     188,
		DRAMLatency:   420,
		IMCHitLatency: 4,
		IMCMissExtra:  160,
		BranchLatency: 7,
		TEXLatency:    72,

		PipeLanes: pipeLanes(map[isa.Pipe]int{
			isa.PipeALU:  32,
			isa.PipeFMA:  32,
			isa.PipeFP64: 1,
			isa.PipeSFU:  4,
			isa.PipeLSU:  8,
			isa.PipeMIO:  8,
			isa.PipeTEX:  2,
			isa.PipeCBU:  32,
		}),

		LGQueueDepth:      16,
		MIOQueueDepth:     8,
		TEXQueueDepth:     4,
		DRAMBytesPerCycle: 270,

		RegFileBanks: 4,

		DivergenceMitigation: 0.3,
		SchedulingPolicy:     "gto",
	}
	mustValidate(s)
	return s
}

// All returns the built-in device models, keyed by a short CLI-friendly id.
func All() map[string]*Spec {
	return map[string]*Spec{
		"gtx1070": GTX1070(),
		"rtx4000": QuadroRTX4000(),
	}
}

// IDs returns the short ids of the built-in device models, sorted.
func IDs() []string {
	ids := make([]string, 0, 2)
	for id := range All() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Lookup resolves a short device id ("gtx1070", "rtx4000"); ok is false for
// unknown ids.
func Lookup(id string) (*Spec, bool) {
	s, ok := All()[id]
	return s, ok
}

func pipeLanes(m map[isa.Pipe]int) [isa.NumPipes]int {
	var lanes [isa.NumPipes]int
	for i := range lanes {
		lanes[i] = 1
	}
	for p, n := range m {
		lanes[p] = n
	}
	return lanes
}

func mustValidate(s *Spec) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
}
