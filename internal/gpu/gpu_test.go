package gpu

import (
	"math"
	"reflect"
	"strconv"
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

// TestValidateNamesTheField: every row of the parameter table set just
// outside its range (NaN too, for a float), and each listed defect, is
// rejected with an error naming the offending field.
func TestValidateNamesTheField(t *testing.T) {
	type bad struct {
		field string
		mut   func(*Spec)
	}
	cases := []bad{
		// Each of these used to validate, then misbehaved in a profile: a
		// negative bandwidth wrapped ProfiledCycles to ~2^64, a NaN one made
		// transfers free and its flush cost an implementation-defined
		// integer, a zero one never finished a transfer, a bank under 64 KiB
		// panicked in the suite apps' constant writes, a NaN mitigation made
		// the thread-instruction count implementation-defined, a negative
		// instruction width wrapped the fetch address.
		{"DRAMBytesPerCycle", func(s *Spec) { s.DRAMBytesPerCycle = -1 }},
		{"DRAMBytesPerCycle", func(s *Spec) { s.DRAMBytesPerCycle = math.NaN() }},
		{"DRAMBytesPerCycle", func(s *Spec) { s.DRAMBytesPerCycle = 0 }},
		{"ConstBankSize", func(s *Spec) { s.ConstBankSize = 0 }},
		{"ConstBankSize", func(s *Spec) { s.ConstBankSize = 4096 }},
		{"DivergenceMitigation", func(s *Spec) { s.DivergenceMitigation = math.NaN() }},
		{"InstrBytes", func(s *Spec) { s.InstrBytes = -8 }},
		// Both divide evenly and used to pass, then panicked in mem.NewMemSys.
		{"LineSize = 96", func(s *Spec) { s.LineSize, s.SectorSize = 96, 32 }},
		{"SectorSize = 24", func(s *Spec) { s.LineSize, s.SectorSize = 96, 24 }},
		{"L2Slices = 3", func(s *Spec) { s.L2Slices = 3 }},
		{"SchedulingPolicy", func(s *Spec) { s.SchedulingPolicy = "random" }},
	}
	for _, p := range params {
		var outside []string
		switch p.value(reflect.ValueOf(GTX1070()).Elem()).Kind() {
		case reflect.Int:
			outside = append(outside, strconv.Itoa(int(p.min)-1), strconv.Itoa(int(p.max)+1))
		case reflect.Float64:
			for _, f := range []float64{math.Nextafter(p.min, math.Inf(-1)), math.Nextafter(p.max, math.Inf(1)), math.NaN()} {
				outside = append(outside, strconv.FormatFloat(f, 'g', -1, 64))
			}
		}
		for _, v := range outside {
			name, v := p.name, v
			cases = append(cases, bad{name, func(s *Spec) {
				if err := s.Set(name, v); err != nil {
					t.Fatal(err)
				}
			}})
		}
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

// TestValidateAllocFree: gpu.Lookup validates both built-in specs on every
// call, and the daemon looks one up per job.
func TestValidateAllocFree(t *testing.T) {
	for _, s := range All() {
		if n := testing.AllocsPerRun(100, func() {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: Validate allocates %v times per call, want 0", s.Name, n)
		}
	}
}

// TestParamsCoverSpec: walking Spec by reflection, every model value has
// exactly one row of the parameter table and every row names one. The
// descriptive fields (name, architecture, memory type, compute capability)
// are not model values.
func TestParamsCoverSpec(t *testing.T) {
	rows := map[string]int{}
	for _, name := range ParamNames() {
		rows[strings.ToLower(name)]++
	}
	descriptive := map[string]bool{"Name": true, "Architecture": true, "MemoryType": true, "Compute": true}
	want := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Spec{})) {
		switch {
		case descriptive[f.Name]:
		case f.Type.Kind() == reflect.Array:
			for p := range f.Type.Len() {
				want[f.Name+"."+isa.Pipe(p).String()] = true
			}
		default:
			want[f.Name] = true
		}
	}
	for name := range want {
		if n := rows[strings.ToLower(name)]; n != 1 {
			t.Errorf("Spec value %s has %d rows, want 1", name, n)
		}
	}
	for _, name := range ParamNames() {
		if !want[name] {
			t.Errorf("row %s names no model value of Spec", name)
		}
	}
}

// TestSet: a name resolves case-insensitively and parses by its field's
// kind; an unknown name lists the table, a malformed value names the field.
func TestSet(t *testing.T) {
	s := QuadroRTX4000()
	for _, c := range [][2]string{
		{"imcsize", "8192"}, {"IMCMissExtra", "0"}, {"pipelanes.fp64", "4"},
		{"DRAMBytesPerCycle", "96.5"}, {"schedulingpolicy", "lrr"},
	} {
		if err := s.Set(c[0], c[1]); err != nil {
			t.Fatalf("Set(%s, %s): %v", c[0], c[1], err)
		}
	}
	if s.IMCSize != 8192 || s.IMCMissExtra != 0 || s.PipeLanes[isa.PipeFP64] != 4 ||
		s.DRAMBytesPerCycle != 96.5 || s.SchedulingPolicy != "lrr" {
		t.Errorf("Set wrote %d %d %d %g %s", s.IMCSize, s.IMCMissExtra, s.PipeLanes[isa.PipeFP64], s.DRAMBytesPerCycle, s.SchedulingPolicy)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("spec after Set: %v", err)
	}
	if err := s.Set("lgqueue", "4"); err == nil || !strings.Contains(err.Error(), "LGQueueDepth") {
		t.Errorf("Set(lgqueue) = %v, want an error listing LGQueueDepth", err)
	}
	if err := s.Set("L1Size", "big"); err == nil || !strings.Contains(err.Error(), "L1Size") {
		t.Errorf("Set(L1Size, big) = %v, want an error naming L1Size", err)
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
