// Package paper computes the tables of the paper's evaluation (§V: Table IX,
// Figs. 4-13) from Top-Down reports and states §V's claims about them as
// predicates. The tables are pure functions of their inputs, which are the
// golden corpus's reports (check.LoadCorpus) for cmd/figures,
// TestPaperClaims and cmd/goldengen alike.
package paper

import (
	"fmt"
	"math"
	"path"
	"sort"

	"gputopdown/internal/check"
	"gputopdown/internal/core"
	"gputopdown/internal/gpu"
	"gputopdown/internal/serve"
)

// A Table is one printed table: a title, a header whose first column names
// the row labels, and rows of numbers. A column whose name ends in "%" holds
// fractions, printed as percentages with one decimal; any other column
// prints with Digits decimals.
type Table struct {
	Title  string
	Header []string
	Rows   []Row
	Digits int
}

// A Row is a label and one value per further column; Text, when set, holds
// the cells verbatim instead (Table IX's device facts).
type Row struct {
	Label  string
	Values []float64
	Text   []string
}

// At returns the value in row label and column col, or NaN when either is
// absent, so that every comparison with a missing cell is false.
func (t Table) At(label, col string) float64 {
	for _, r := range t.Rows {
		for i, h := range t.Header[1:] {
			if r.Label == label && h == col && i < len(r.Values) {
				return r.Values[i]
			}
		}
	}
	return math.NaN()
}

// average appends the column means as an AVERAGE row.
func (t *Table) average() {
	avg := make([]float64, len(t.Header)-1)
	for _, r := range t.Rows {
		for i, v := range r.Values {
			avg[i] += v / float64(len(t.Rows))
		}
	}
	t.Rows = append(t.Rows, Row{Label: "AVERAGE", Values: avg})
}

// shares returns the IPC of each component path (core.Row.Path) of a as a
// share of IPC_MAX or, normalised, of the IPC degradation (IPC_MAX - retire).
// An absent path counts as 0.
func shares(a *core.AnalysisJSON, paths []string, normalised bool) []float64 {
	ipc := map[string]float64{}
	for _, c := range a.Components {
		ipc[c.Path] = c.IPC
	}
	div := a.IPCMax
	if normalised {
		div -= ipc["retire"]
	}
	vals := make([]float64, len(paths))
	for i, p := range paths {
		if div > 0 {
			vals[i] = ipc[p] / div
		}
	}
	return vals
}

func header(first string, paths []string) []string {
	h := []string{first}
	for _, p := range paths {
		h = append(h, path.Base(p)+"%")
	}
	return h
}

// level1 and level2 are the paths a level-3 analysis, the corpus's, shows at
// depth 1 and 2; level3 is each stall category's ncu segments in table
// order, but with drain last: Figs. 7 and 10 print it there, the column
// order figures_full.txt and the claim rows read, while the table keeps
// ncu's order, which the counter request and its pass schedule follow.
var level1, level2, level3 = columns()

func columns() (l1, l2, l3 []string) {
	for _, n := range core.Nodes {
		switch {
		case n.MaxLevel < core.Level3:
		case n.Depth == 1:
			l1 = append(l1, n.Path)
		default:
			l2 = append(l2, n.Path)
		}
		for _, seg := range n.NCU {
			if seg != "drain" {
				l3 = append(l3, n.Path+"/"+seg)
			}
		}
	}
	return l1, l2, append(l3, "backend/memory/drain")
}

const normTitle = " (normalised to total IPC degradation)"

// A breakdown is one Top-Down table of Figs. 4-10: a row per app of a suite
// profiled on a GPU, a column per component path (see shares), and with
// average the suite mean.
type breakdown struct {
	fig, title, suite, gpuID string
	paths                    []string
	normalised, average      bool
}

// breakdowns lists the tables of Figs. 4-10 in print order.
var breakdowns = []breakdown{
	{"4", "Figure 4 (left). binaryPartitionCG Top-Down level 1 vs tile size (Turing)", "cudasamples", "rtx4000", level1, false, true},
	{"4", "Figure 4 (right). binaryPartitionCG Top-Down level 2 vs tile size (Turing)", "cudasamples", "rtx4000", level2, false, false},
	{"5", "Figure 5 (top). Rodinia Top-Down level 1 on Pascal (GTX 1070)", "rodinia", "gtx1070", level1, false, true},
	{"5", "Figure 5 (bottom). Rodinia Top-Down level 1 on Turing (Quadro RTX 4000)", "rodinia", "rtx4000", level1, false, true},
	{"6", "Figure 6. Rodinia Top-Down level 2 on Turing" + normTitle, "rodinia", "rtx4000", level2, true, true},
	{"7", "Figure 7. Rodinia Top-Down level 3 on Turing" + normTitle, "rodinia", "rtx4000", level3, true, true},
	{"8", "Figure 8. Altis Top-Down level 1 on Turing", "altis", "rtx4000", level1, false, true},
	{"9", "Figure 9. Altis Top-Down level 2 on Turing" + normTitle, "altis", "rtx4000", level2, true, true},
	{"10", "Figure 10. Altis Top-Down level 3 on Turing" + normTitle, "altis", "rtx4000", level3, true, true},
}

// A Source returns the reports of one suite profiled on one GPU, in suite
// order, or given check.DynamicID the srad dynamic run's report.
type Source func(gpuID, suite string) []*serve.Report

// Figure returns the tables of Table IX ("table9") or of one of Figs. 4-13,
// in print order; nil for any other id. Figs. 11-12 read src's
// check.DynamicID report.
func Figure(id string, src Source) []Table {
	switch id {
	case "table9":
		return []Table{table9()}
	case "11", "12":
		kernel := map[string]string{"11": "srad_cuda_1", "12": "srad_cuda_2"}[id]
		return []Table{dynamic(id, kernel, src("rtx4000", check.DynamicID))}
	case "13":
		return []Table{overhead(src("rtx4000", "rodinia"), src("rtx4000", "altis"))}
	}
	var ts []Table
	for _, b := range breakdowns {
		if b.fig != id {
			continue
		}
		t := Table{Title: b.title, Header: header("app", b.paths)}
		for _, r := range src(b.gpuID, b.suite) {
			t.Rows = append(t.Rows, Row{Label: r.App, Values: shares(r.Aggregate, b.paths, b.normalised)})
		}
		if b.average {
			t.average()
		}
		ts = append(ts, t)
	}
	return ts
}

// table9 is Table IX, the characteristics of the two evaluation GPUs.
func table9() Table {
	t := Table{Title: "Table IX. GPU characteristics", Header: []string{"Feature"}}
	for _, l := range []string{"Compute Capability", "Memory", "CUDA cores", "SMs", "SM Subpartitions", "Power", "IPC_MAX"} {
		t.Rows = append(t.Rows, Row{Label: l})
	}
	for _, id := range gpu.IDs() {
		s, _ := gpu.Lookup(id)
		t.Header = append(t.Header, s.Name)
		for i, cell := range []string{fmt.Sprintf("%s (%s)", s.Compute, s.Architecture),
			fmt.Sprintf("%dGB %s", s.MemoryGB, s.MemoryType), fmt.Sprint(s.CUDACores), fmt.Sprint(s.SMs),
			fmt.Sprint(s.SubpartitionsPerSM), fmt.Sprintf("%dW", s.PowerW), fmt.Sprintf("%.0f", s.IPCMax())} {
			t.Rows[i].Text = append(t.Rows[i].Text, cell)
		}
	}
	return t
}

// dynamic is Fig. 11 or 12: the cycles and level-1 shares of every invocation
// of one kernel in reps, in invocation order; no rows without reports.
func dynamic(fig, kernel string, reps []*serve.Report) Table {
	t := Table{Title: fmt.Sprintf("Figure %s. Level-1 Top-Down evolution of %s on Turing", fig, kernel),
		Header: append([]string{"invocation"}, header("cycles", level1)...)}
	for _, rep := range reps {
		for _, k := range rep.Kernels {
			if k.Kernel == kernel {
				t.Rows = append(t.Rows, Row{Label: fmt.Sprint(len(t.Rows)),
					Values: append([]float64{float64(k.Cycles)}, shares(k.Analysis, level1, false)...)})
			}
		}
	}
	return t
}

// overhead is Fig. 13: each app's profiled-to-native cycle ratio, labelled
// suite/app and sorted by label, and their average.
func overhead(suites ...[]*serve.Report) Table {
	t := Table{Title: "Figure 13. Overhead of level-3 Top-Down analysis vs native execution on Turing (x)",
		Header: []string{"app", "overhead_x"}, Digits: 1}
	for _, reports := range suites {
		for _, r := range reports {
			x := 0.0
			if r.NativeCycles > 0 {
				x = float64(r.ProfiledCycles) / float64(r.NativeCycles)
			}
			t.Rows = append(t.Rows, Row{Label: r.Suite + "/" + r.App, Values: []float64{x}})
		}
	}
	sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i].Label < t.Rows[j].Label })
	t.average()
	return t
}
