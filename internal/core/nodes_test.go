package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestNodesCoverAnalysis: walking Analysis by reflection, every float64
// component and every *Detail map is bound to exactly one row of the node
// table, and every row to one of them. IPCMax and Weight are not components.
func TestNodesCoverAnalysis(t *testing.T) {
	bound := map[string]int{}
	for _, n := range Nodes {
		bound[n.Name]++
		if len(n.NCU) > 0 {
			bound[n.Name+"Detail"]++
		}
	}
	want := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Analysis{})) {
		switch {
		case f.Name == "IPCMax" || f.Name == "Weight":
		case f.Type.Kind() == reflect.Float64, strings.HasSuffix(f.Name, "Detail"):
			want[f.Name] = true
		}
	}
	for name := range want {
		if n := bound[name]; n != 1 {
			t.Errorf("Analysis.%s is bound to %d rows, want 1", name, n)
		}
	}
	for name := range bound {
		if !want[name] {
			t.Errorf("a row binds %s, which is no component of Analysis", name)
		}
	}
}

// TestPct: a component the analysis level does not show prints "-" in the
// column's width; one it shows prints its share of IPC_MAX.
func TestPct(t *testing.T) {
	a1, a2, a3 := sampleAnalysis(t, Level1), sampleAnalysis(t, Level2), sampleAnalysis(t, Level3)
	share := func(a *Analysis, v float64) string { return fmt.Sprintf("%5.1f%%", 100*a.Fraction(v)) }
	for _, c := range []struct {
		a          *Analysis
		path, want string
	}{
		{a1, "stall", share(a1, a1.Stall)},
		{a1, "frontend", "     -"},
		{a1, "backend/memory/imc_miss", "     -"},
		{a2, "backend/memory", share(a2, a2.Memory)},
		{a2, "backend/memory/imc_miss", "     -"},
		{a3, "stall", "     -"},
		{a3, "backend/memory/imc_miss", share(a3, a3.MemoryDetail["imc_miss"])},
	} {
		if got := Pct(c.a, c.path, 6); got != c.want {
			t.Errorf("level %d %s: Pct = %q, want %q", c.a.Level, c.path, got, c.want)
		}
	}
}
