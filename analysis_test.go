package gputopdown

import (
	"bytes"
	"context"
	"os"
	"testing"

	"gputopdown/internal/core"
	"gputopdown/internal/cupti"
	"gputopdown/internal/kernel"
)

// TestAnalysisAllocs caps the allocations of one Top-Down analysis and its
// renderings on a real counter set (shoc/s3d, 2 SMs). The analysis runs once
// per profiled invocation, so walking the node table must stay within these
// counts.
func TestAnalysisAllocs(t *testing.T) {
	app, _ := LookupApp("shoc", "s3d")
	for _, c := range []struct {
		gpu                               string
		level                             int
		analyze, aggregate, export, strng float64
	}{
		{"rtx4000", 3, 53, 16, 28, 68},
		{"gtx1070", 2, 9, 6, 7, 39},
	} {
		spec, _ := LookupGPU(c.gpu)
		p := NewProfiler(spec.WithSMs(2), WithLevel(c.level))
		an := p.newAnalyzer()
		request, err := an.CounterRequest()
		if err != nil {
			t.Fatal(err)
		}
		var recs []*cupti.KernelRecord
		if _, err := p.Collect(context.Background(), app, request, func(_ *kernel.Launch, rec *cupti.KernelRecord) error {
			recs = append(recs, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		a := an.Analyze(recs[0].Kernel, recs[0].Values)
		for _, m := range []struct {
			name string
			max  float64
			f    func()
		}{
			{"Analyze", c.analyze, func() { an.Analyze(recs[0].Kernel, recs[0].Values) }},
			{"Aggregate", c.aggregate, func() { core.Aggregate("app", []*core.Analysis{a, a}) }},
			{"Export", c.export, func() { a.Export() }},
			{"String", c.strng, func() { _ = a.String() }},
		} {
			got := testing.AllocsPerRun(20, m.f)
			t.Logf("%s level %d: %s %v", c.gpu, c.level, m.name, got)
			if got > m.max {
				t.Errorf("%s level %d: %s allocates %v times, want <= %v", c.gpu, c.level, m.name, got, m.max)
			}
		}
	}
}

// TestFlameBytes pins the folded stacks of altis/gemm at both AddFlame
// branches, the level-3 stall-reason leaves and the level-1 stack, byte for
// byte.
func TestFlameBytes(t *testing.T) {
	app, _ := LookupApp("altis", "gemm")
	for _, level := range []int{3, 1} {
		spec, _ := LookupGPU("rtx4000")
		res, err := NewProfiler(spec.WithSMs(2), WithLevel(level)).ProfileApp(context.Background(), app)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFlame()
		AddFlame(f, res)
		var got bytes.Buffer
		if err := f.WriteFolded(&got); err != nil {
			t.Fatal(err)
		}
		name := "testdata/flame_gemm_level" + string(rune('0'+level)) + ".folded"
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("level %d folded stacks differ from %s\n--- got\n%s--- want\n%s", level, name, got.String(), want)
		}
	}
}
