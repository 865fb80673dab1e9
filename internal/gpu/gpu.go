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
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// Validate checks every model value against its row of the parameter table
// (params), then the rules that tie values together. It allocates nothing
// on a valid spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("gpu: spec has no name")
	}
	spec := reflect.ValueOf(s).Elem()
	for i := range params {
		if err := params[i].check(s, spec); err != nil {
			return err
		}
	}
	switch {
	// A cache line's valid sectors are a 32-bit mask.
	case s.LineSize%s.SectorSize != 0 || s.LineSize/s.SectorSize > 32:
		return fmt.Errorf("gpu %s: LineSize %d / SectorSize %d (want a multiple, at most 32 sectors)", s.Name, s.LineSize, s.SectorSize)
	// The memory model splits addresses by shift and mask. SectorSize first:
	// it divides LineSize, so it can only be at fault when LineSize is too.
	case s.SectorSize&(s.SectorSize-1) != 0:
		return fmt.Errorf("gpu %s: SectorSize = %d (want a power of two)", s.Name, s.SectorSize)
	case s.LineSize&(s.LineSize-1) != 0:
		return fmt.Errorf("gpu %s: LineSize = %d (want a power of two)", s.Name, s.LineSize)
	case s.L2Slices&(s.L2Slices-1) != 0:
		return fmt.Errorf("gpu %s: L2Slices = %d (want a power of two)", s.Name, s.L2Slices)
	case s.L2Size%s.L2Slices != 0:
		return fmt.Errorf("gpu %s: L2Size %d not divisible by %d L2Slices", s.Name, s.L2Size, s.L2Slices)
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
	return fill(0, Spec{Name: "NVIDIA GTX 1070", Architecture: "Pascal", Compute: CC{6, 1},
		MemoryType: "DDR5", SchedulingPolicy: "gto"})
}

// QuadroRTX4000 returns the NVIDIA Quadro RTX 4000 model (Turing, CC 7.5)
// from the paper's Table IX. The paper reports 2 SM subpartitions for this
// part and IPC_MAX follows from it.
func QuadroRTX4000() *Spec {
	return fill(1, Spec{Name: "NVIDIA Quadro RTX 4000", Architecture: "Turing", Compute: CC{7, 5},
		MemoryType: "DDR6", SchedulingPolicy: "gto"})
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

// param is one model value of a Spec: an int or float64 field, one pipe's
// entry of PipeLanes, or SchedulingPolicy. A numeric value is legal in
// [min, max] (NaN never is) and builtin holds the GTX 1070's and the RTX
// 4000's; a string value is legal in set.
type param struct {
	name     string // Go field name; "PipeLanes.<pipe>" for a lane count
	min, max float64
	builtin  [2]float64
	set      []string
	field    int // index in Spec
	elem     int // index in PipeLanes, or -1
}

func row(name string, min, max, gtx1070, rtx4000 float64) param {
	return param{name: name, min: min, max: max, builtin: [2]float64{gtx1070, rtx4000}}
}

// params is the only list of Spec's model values: their legal ranges, which
// Validate checks and Set writes within, and the built-in devices' values. A
// floor is what the model needs; a cap keeps allocations and unsigned cycle
// arithmetic bounded. Rows are row(name, min, max, GTX 1070, RTX 4000).
var params = resolve([]param{
	// Table IX. SMs and SubpartitionsPerSM size the device; the rest are printed.
	row("SMs", 1, 1024, 15, 36),
	row("SubpartitionsPerSM", 1, 16, 4, 2),
	row("CUDACores", 1, 1<<20, 1920, 2304),
	row("MemoryGB", 1, 1024, 8, 8),
	row("PowerW", 1, 4096, 150, 160),
	// Residency. The SM scheduler keeps sets of warp slots as 64-bit masks.
	row("WarpSlotsPerSubpartition", 1, 64, 16, 16),
	row("MaxThreadsPerSM", WarpSize, 1<<16, 2048, 1024),
	row("MaxBlocksPerSM", 1, 1024, 32, 16),
	row("RegistersPerSM", 1, 1<<20, 65536, 65536),
	row("SharedMemPerSM", 1, 1<<24, 96<<10, 64<<10),
	row("ClockMHz", 1, 1<<14, 1506, 1545),
	// Instruction supply. A non-positive width would wrap the fetch address.
	row("InstrBytes", 1, 256, 8, 16),
	row("ICacheSize", 1, 1<<24, 8<<10, 16<<10),
	row("ICacheWays", 1, 64, 4, 4),
	row("FetchCyclesPerLine", 1, 1024, 3, 1),
	row("DecodeDelay", 1, 1024, 4, 2),
	// Data caches; a zero-way cache divides by zero, and a line of one
	// byte would let line number + 1, its key, wrap.
	row("L1Size", 1, 1<<24, 48<<10, 64<<10),
	row("L1Ways", 1, 64, 4, 4),
	row("LineSize", 2, 4096, 128, 128),
	row("SectorSize", 1, 4096, 32, 32),
	row("L2Size", 1, 1<<28, 2<<20, 4<<20),
	row("L2Ways", 1, 64, 16, 16),
	row("L2Slices", 1, 64, 4, 4),
	// Constant path. The suite apps write their constant tables at
	// kernel.ParamSpace and size them for CUDA's 64 KiB bank.
	row("IMCSize", 1, 1<<24, 2<<10, 2<<10),
	row("IMCWays", 1, 64, 4, 4),
	row("ConstBankSize", 64<<10, 1<<20, 64<<10, 64<<10),
	// Latencies become unsigned cycle counts: a negative one would wrap to ~2^64.
	row("ALULatency", 0, 1<<20, 6, 4),
	row("FMALatency", 0, 1<<20, 6, 4),
	row("FP64Latency", 0, 1<<20, 8, 8),
	row("SFULatency", 0, 1<<20, 14, 12),
	row("SharedLatency", 0, 1<<20, 24, 22),
	row("L1Latency", 0, 1<<20, 32, 28),
	row("L2Latency", 0, 1<<20, 216, 188),
	row("DRAMLatency", 0, 1<<20, 440, 420),
	row("IMCHitLatency", 0, 1<<20, 4, 4),
	row("IMCMissExtra", 0, 1<<20, 180, 160),
	row("BranchLatency", 0, 1<<20, 8, 7),
	row("TEXLatency", 0, 1<<20, 80, 72),
	// Lanes per subpartition; a warp instruction holds its pipe WarpSize/lanes cycles.
	row("PipeLanes.ALU", 1, WarpSize, 32, 32),
	row("PipeLanes.FMA", 1, WarpSize, 32, 32),
	row("PipeLanes.FP64", 1, WarpSize, 1, 1),
	row("PipeLanes.SFU", 1, WarpSize, 8, 4),
	row("PipeLanes.LSU", 1, WarpSize, 8, 8),
	row("PipeLanes.MIO", 1, WarpSize, 8, 8),
	row("PipeLanes.TEX", 1, WarpSize, 2, 2),
	row("PipeLanes.CBU", 1, WarpSize, 32, 32),
	row("LGQueueDepth", 1, 1024, 16, 16),
	row("MIOQueueDepth", 1, 1024, 8, 8),
	row("TEXQueueDepth", 1, 1024, 4, 4),
	// At zero bandwidth DRAM never finishes a transfer.
	row("DRAMBytesPerCycle", 1, 1<<16, 170, 270),
	row("RegFileBanks", 1, 64, 4, 4),
	row("DivergenceMitigation", 0, 1, 0, 0.3),
	{name: "SchedulingPolicy", set: []string{"gto", "lrr"}},
})

// resolve binds each row to its Spec field, and a PipeLanes row to its pipe.
func resolve(rows []param) []param {
	t := reflect.TypeOf(Spec{})
	for i := range rows {
		field, pipe, _ := strings.Cut(rows[i].name, ".")
		f, ok := t.FieldByName(field)
		rows[i].elem = -1
		for p := range isa.NumPipes {
			if isa.Pipe(p).String() == pipe {
				rows[i].elem = p
			}
		}
		if !ok || (pipe != "") != (rows[i].elem >= 0) {
			panic("gpu: parameter " + rows[i].name + " names no Spec value")
		}
		rows[i].field = f.Index[0]
	}
	return rows
}

// value returns the row's value in spec, a settable Spec.
func (p *param) value(spec reflect.Value) reflect.Value {
	v := spec.Field(p.field)
	if p.elem >= 0 {
		v = v.Index(p.elem)
	}
	return v
}

// check returns an error naming the row if its value in s is illegal.
func (p *param) check(s *Spec, spec reflect.Value) error {
	v := p.value(spec)
	var f float64
	switch v.Kind() {
	case reflect.Int:
		f = float64(v.Int())
	case reflect.Float64:
		f = v.Float()
	default:
		if !slices.Contains(p.set, v.String()) {
			return fmt.Errorf("gpu %s: %s = %q (want one of %s)", s.Name, p.name, v.String(), strings.Join(p.set, ", "))
		}
		return nil
	}
	if !(f >= p.min && f <= p.max) {
		return fmt.Errorf("gpu %s: %s = %v (want %s to %s)", s.Name, p.name, v,
			strconv.FormatFloat(p.min, 'f', -1, 64), strconv.FormatFloat(p.max, 'f', -1, 64))
	}
	return nil
}

// fill sets s's numeric model values from column col of params.
func fill(col int, s Spec) *Spec {
	spec := reflect.ValueOf(&s).Elem()
	for i := range params {
		switch v := params[i].value(spec); v.Kind() {
		case reflect.Int:
			v.SetInt(int64(params[i].builtin[col]))
		case reflect.Float64:
			v.SetFloat(params[i].builtin[col])
		}
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return &s
}

// ParamNames returns the names Set accepts, in Spec's field order.
func ParamNames() []string {
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.name
	}
	return names
}

// Set parses value by the kind of the model value called name (a ParamNames
// entry, matched case-insensitively) and stores it in s. It does not check
// the range: call Validate.
func (s *Spec) Set(name, value string) error {
	i := slices.IndexFunc(params, func(p param) bool { return strings.EqualFold(p.name, name) })
	if i < 0 {
		return fmt.Errorf("gpu: unknown parameter %q (want one of %s)", name, strings.Join(ParamNames(), ", "))
	}
	p := &params[i]
	v := p.value(reflect.ValueOf(s).Elem())
	switch v.Kind() {
	case reflect.Int:
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("gpu: %s: %w", p.name, err)
		}
		v.SetInt(int64(n))
	case reflect.Float64:
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return fmt.Errorf("gpu: %s: %w", p.name, err)
		}
		v.SetFloat(f)
	default:
		v.SetString(value)
	}
	return nil
}
