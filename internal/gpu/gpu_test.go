package gpu

import (
	"strings"
	"testing"

	"gputopdown/internal/isa"
)

func TestTable9Characteristics(t *testing.T) {
	// The paper's Table IX, verbatim.
	p := GTX1070()
	if p.Compute != (CC{6, 1}) || p.Architecture != "Pascal" {
		t.Errorf("GTX1070 CC/arch = %s/%s", p.Compute, p.Architecture)
	}
	if p.MemoryGB != 8 || p.MemoryType != "DDR5" {
		t.Errorf("GTX1070 memory = %dGB %s", p.MemoryGB, p.MemoryType)
	}
	if p.CUDACores != 1920 || p.SMs != 15 || p.SubpartitionsPerSM != 4 || p.PowerW != 150 {
		t.Errorf("GTX1070 cores/SMs/subparts/power = %d/%d/%d/%d",
			p.CUDACores, p.SMs, p.SubpartitionsPerSM, p.PowerW)
	}

	q := QuadroRTX4000()
	if q.Compute != (CC{7, 5}) || q.Architecture != "Turing" {
		t.Errorf("RTX4000 CC/arch = %s/%s", q.Compute, q.Architecture)
	}
	if q.MemoryGB != 8 || q.MemoryType != "DDR6" {
		t.Errorf("RTX4000 memory = %dGB %s", q.MemoryGB, q.MemoryType)
	}
	if q.CUDACores != 2304 || q.SMs != 36 || q.SubpartitionsPerSM != 2 || q.PowerW != 160 {
		t.Errorf("RTX4000 cores/SMs/subparts/power = %d/%d/%d/%d",
			q.CUDACores, q.SMs, q.SubpartitionsPerSM, q.PowerW)
	}
}

func TestCCComparisons(t *testing.T) {
	cases := []struct {
		cc      CC
		unified bool
	}{
		{CC{3, 0}, false},
		{CC{6, 1}, false},
		{CC{7, 0}, false},
		{CC{7, 2}, true},
		{CC{7, 5}, true},
		{CC{8, 0}, true},
	}
	for _, c := range cases {
		if got := c.cc.UsesUnifiedMetrics(); got != c.unified {
			t.Errorf("CC %s UsesUnifiedMetrics = %v, want %v", c.cc, got, c.unified)
		}
	}
	if !(CC{7, 5}).AtLeast(7, 5) || (CC{7, 5}).AtLeast(8, 0) || !(CC{8, 0}).AtLeast(7, 5) {
		t.Error("AtLeast comparison broken")
	}
	if (CC{6, 1}).String() != "6.1" {
		t.Errorf("CC String = %q", (CC{6, 1}).String())
	}
}

func TestIPCMaxFollowsDispatchUnits(t *testing.T) {
	// Paper §IV.C: IPC_MAX equals the number of dispatch units per SM.
	if got := GTX1070().IPCMax(); got != 4 {
		t.Errorf("GTX1070 IPCMax = %g, want 4", got)
	}
	if got := QuadroRTX4000().IPCMax(); got != 2 {
		t.Errorf("RTX4000 IPCMax = %g, want 2", got)
	}
}

func TestSpecsValidate(t *testing.T) {
	for id, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	base := GTX1070()
	mutations := []func(*Spec){
		func(s *Spec) { s.Name = "" },
		func(s *Spec) { s.SMs = 0 },
		func(s *Spec) { s.SubpartitionsPerSM = 0 },
		func(s *Spec) { s.ClockMHz = 0 },
		func(s *Spec) { s.SectorSize = 48 }, // not dividing line size
		func(s *Spec) { s.SectorSize = 2 },  // 64 sectors to the line
		func(s *Spec) { s.L2Size = 0 },
		func(s *Spec) { s.SchedulingPolicy = "random" },
		func(s *Spec) { s.DivergenceMitigation = 2 },
		func(s *Spec) { s.PipeLanes[isa.PipeFMA] = 0 },
		func(s *Spec) { s.LGQueueDepth = 0 },
	}
	for i, mut := range mutations {
		c := *base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

// TestValidateNamesTheField: a negative latency (which the models would wrap
// to a huge unsigned cycle count) and a non-positive way count or per-SM
// resource are rejected with an error naming the offending field.
func TestValidateNamesTheField(t *testing.T) {
	cases := []struct {
		field string
		mut   func(*Spec)
	}{
		{"ALULatency", func(s *Spec) { s.ALULatency = -1 }},
		{"FMALatency", func(s *Spec) { s.FMALatency = -1 }},
		{"FP64Latency", func(s *Spec) { s.FP64Latency = -1 }},
		{"SFULatency", func(s *Spec) { s.SFULatency = -1 }},
		{"SharedLatency", func(s *Spec) { s.SharedLatency = -1 }},
		{"L1Latency", func(s *Spec) { s.L1Latency = -1 }},
		{"L2Latency", func(s *Spec) { s.L2Latency = -1 }},
		{"DRAMLatency", func(s *Spec) { s.DRAMLatency = -5 }},
		{"IMCHitLatency", func(s *Spec) { s.IMCHitLatency = -1 }},
		{"IMCMissExtra", func(s *Spec) { s.IMCMissExtra = -1 }},
		{"BranchLatency", func(s *Spec) { s.BranchLatency = -1 }},
		{"TEXLatency", func(s *Spec) { s.TEXLatency = -1 }},
		{"ICacheWays", func(s *Spec) { s.ICacheWays = 0 }},
		{"L1Ways", func(s *Spec) { s.L1Ways = 0 }},
		{"L2Ways", func(s *Spec) { s.L2Ways = 0 }},
		{"IMCWays", func(s *Spec) { s.IMCWays = 0 }},
		{"RegistersPerSM", func(s *Spec) { s.RegistersPerSM = 0 }},
		{"SharedMemPerSM", func(s *Spec) { s.SharedMemPerSM = 0 }},
		// One past the width of the SM scheduler's slot masks.
		{"WarpSlotsPerSubpartition", func(s *Spec) { s.WarpSlotsPerSubpartition = 65 }},
		// Both divide evenly and used to pass, then panicked in mem.NewMemSys.
		{"LineSize = 96", func(s *Spec) { s.LineSize, s.SectorSize = 96, 32 }},
		{"SectorSize = 24", func(s *Spec) { s.LineSize, s.SectorSize = 96, 24 }},
	}
	for _, base := range []*Spec{GTX1070(), QuadroRTX4000()} {
		for _, c := range cases {
			s := *base
			c.mut(&s)
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
				t.Errorf("%s with bad %s: Validate = %v, want an error naming the field", base.Name, c.field, err)
			}
		}
	}
}

func TestWithSMsScalesL2(t *testing.T) {
	s := QuadroRTX4000()
	d := s.WithSMs(4)
	if d.SMs != 4 {
		t.Errorf("SMs = %d", d.SMs)
	}
	if d.L2Size >= s.L2Size {
		t.Errorf("L2 did not scale down: %d >= %d", d.L2Size, s.L2Size)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("downscaled spec invalid: %v", err)
	}
	// Original untouched.
	if s.SMs != 36 {
		t.Error("WithSMs mutated the receiver")
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("gtx1070"); !ok {
		t.Error("gtx1070 not found")
	}
	if _, ok := Lookup("rtx4000"); !ok {
		t.Error("rtx4000 not found")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus device found")
	}
	if got := strings.Join(IDs(), ","); got != "gtx1070,rtx4000" {
		t.Errorf("IDs() = %s, want gtx1070,rtx4000", got)
	}
}

func TestWarpsPerSM(t *testing.T) {
	if got := GTX1070().WarpsPerSM(); got != 64 {
		t.Errorf("GTX1070 WarpsPerSM = %d, want 64", got)
	}
	if got := QuadroRTX4000().WarpsPerSM(); got != 32 {
		t.Errorf("RTX4000 WarpsPerSM = %d, want 32", got)
	}
}
