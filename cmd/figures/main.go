// Command figures regenerates every table and figure of the paper's
// evaluation (§V): Table IX, the binaryPartitionCG tile sweep (Fig. 4), the
// Rodinia and Altis suite analyses at levels 1-3 (Figs. 5-10), the srad
// dynamic series (Figs. 11-12) and the profiling-overhead comparison
// (Fig. 13).
//
// Suite runs are shared across figures (a level-3 profile contains the
// level-1 and level-2 data), so -fig all performs four suite profiles plus
// the dynamic run.
//
// Examples:
//
//	figures -fig table9
//	figures -fig 4 -format csv
//	figures -fig all -sms 8 > figures.txt   # downscaled quick run
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"gputopdown"
	"gputopdown/internal/cliflags"
)

type config struct {
	flags  *cliflags.Flags // -sms
	format string          // "table" or "csv"
	outDir string          // when set, every table is also written as a CSV file

	// Cached suite results, computed on demand.
	rodiniaTuring []*gputopdown.AppResult
	rodiniaPascal []*gputopdown.AppResult
	altisTuring   []*gputopdown.AppResult
	samplesTuring []*gputopdown.AppResult
	sradDynamic   *gputopdown.AppResult
}

func main() {
	shared := cliflags.New("figures")
	shared.Register(flag.CommandLine, "sms")
	fig := flag.String("fig", "all", "figure to regenerate: table9, 4..13, or all")
	format := flag.String("format", "table", "output format: table or csv")
	outDir := flag.String("out", "", "also write each emitted table as a CSV file into this directory")
	flag.Parse()

	cfg := &config{flags: shared, format: *format, outDir: *outDir}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
	}
	figs := map[string]func(*config){
		"table9": table9,
		"4":      fig4,
		"5":      fig5,
		"6":      fig6,
		"7":      fig7,
		"8":      fig8,
		"9":      fig9,
		"10":     fig10,
		"11":     fig11,
		"12":     fig12,
		"13":     fig13,
	}
	if *fig == "all" {
		for _, id := range []string{"table9", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13"} {
			figs[id](cfg)
			fmt.Println()
		}
		return
	}
	f, ok := figs[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(1)
	}
	f(cfg)
}

func (c *config) device(id string) *gputopdown.GPUSpec {
	spec, _ := c.flags.Spec(id)
	return spec
}

func (c *config) suite(name, gpuID string, level int, cache *[]*gputopdown.AppResult) []*gputopdown.AppResult {
	if *cache != nil {
		return *cache
	}
	p := gputopdown.NewProfiler(c.device(gpuID), gputopdown.WithLevel(level))
	res, err := p.ProfileSuite(context.Background(), name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: %s on %s: %v\n", name, gpuID, err)
		os.Exit(1)
	}
	*cache = res
	return res
}

func (c *config) dynamic() *gputopdown.AppResult {
	if c.sradDynamic != nil {
		return c.sradDynamic
	}
	p := gputopdown.NewProfiler(c.device("rtx4000"), gputopdown.WithLevel(1))
	res, err := p.ProfileApp(context.Background(), gputopdown.SradDynamic())
	if err != nil {
		fmt.Fprintf(os.Stderr, "figures: srad dynamic: %v\n", err)
		os.Exit(1)
	}
	c.sradDynamic = res
	return res
}

// emit prints one table in the configured format and, when -out is set,
// writes it as a CSV file named after the title.
func (c *config) emit(title string, header []string, rows [][]string) {
	if c.outDir != "" {
		c.writeCSV(title, header, rows)
	}
	if c.format == "csv" {
		fmt.Printf("# %s\n", title)
		fmt.Println(strings.Join(header, ","))
		for _, r := range rows {
			fmt.Println(strings.Join(r, ","))
		}
		return
	}
	fmt.Println(title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i == 0 {
				fmt.Printf("%-*s", widths[i]+2, cell)
			} else {
				fmt.Printf("%*s", widths[i]+2, cell)
			}
		}
		fmt.Println()
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
}

func (c *config) writeCSV(title string, header []string, rows [][]string) {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == ' ' || r == '.' || r == '(' || r == ')':
			return '_'
		default:
			return -1
		}
	}, strings.SplitN(title, ".", 2)[0])
	path := fmt.Sprintf("%s/%s.csv", c.outDir, slug)
	var sb strings.Builder
	sb.WriteString(strings.Join(header, ",") + "\n")
	for _, r := range rows {
		sb.WriteString(strings.Join(r, ",") + "\n")
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}

func pct(v float64) string { return fmt.Sprintf("%.1f", 100*v) }

func table9(c *config) {
	g := c.device("gtx1070")
	q := c.device("rtx4000")
	rows := [][]string{
		{"Compute Capability", fmt.Sprintf("%s (%s)", g.Compute, g.Architecture), fmt.Sprintf("%s (%s)", q.Compute, q.Architecture)},
		{"Memory", fmt.Sprintf("%dGB %s", g.MemoryGB, g.MemoryType), fmt.Sprintf("%dGB %s", q.MemoryGB, q.MemoryType)},
		{"CUDA cores", fmt.Sprint(g.CUDACores), fmt.Sprint(q.CUDACores)},
		{"SMs", fmt.Sprint(g.SMs), fmt.Sprint(q.SMs)},
		{"SM Subpartitions", fmt.Sprint(g.SubpartitionsPerSM), fmt.Sprint(q.SubpartitionsPerSM)},
		{"Power", fmt.Sprintf("%dW", g.PowerW), fmt.Sprintf("%dW", q.PowerW)},
		{"IPC_MAX", fmt.Sprintf("%.0f", g.IPCMax()), fmt.Sprintf("%.0f", q.IPCMax())},
	}
	c.emit("Table IX. GPU characteristics", []string{"Feature", g.Name, q.Name}, rows)
}

func level1Rows(results []*gputopdown.AppResult) [][]string {
	var rows [][]string
	var avg [4]float64
	for _, r := range results {
		a := r.Aggregate
		f := a.Fraction
		vals := [4]float64{f(a.Retire), f(a.Divergence), f(a.Frontend), f(a.Backend)}
		rows = append(rows, []string{r.App, pct(vals[0]), pct(vals[1]), pct(vals[2]), pct(vals[3])})
		for i := range avg {
			avg[i] += vals[i] / float64(len(results))
		}
	}
	rows = append(rows, []string{"AVERAGE", pct(avg[0]), pct(avg[1]), pct(avg[2]), pct(avg[3])})
	return rows
}

var level1Header = []string{"app", "retire%", "divergence%", "frontend%", "backend%"}

func fig4(c *config) {
	res := c.suite("cudasamples", "rtx4000", 3, &c.samplesTuring)
	// Level 1.
	c.emit("Figure 4 (left). binaryPartitionCG Top-Down level 1 vs tile size (Turing)",
		level1Header, level1Rows(res))
	fmt.Println()
	// Level 2.
	var rows [][]string
	for _, r := range res {
		a := r.Aggregate
		f := a.Fraction
		rows = append(rows, []string{r.App,
			pct(f(a.Branch)), pct(f(a.Replay)),
			pct(f(a.Fetch)), pct(f(a.Decode)),
			pct(f(a.Core)), pct(f(a.Memory))})
	}
	c.emit("Figure 4 (right). binaryPartitionCG Top-Down level 2 vs tile size (Turing)",
		[]string{"app", "branch%", "replay%", "fetch%", "decode%", "core%", "memory%"}, rows)
}

func fig5(c *config) {
	pas := c.suite("rodinia", "gtx1070", 2, &c.rodiniaPascal)
	c.emit("Figure 5 (top). Rodinia Top-Down level 1 on Pascal (GTX 1070)",
		level1Header, level1Rows(pas))
	fmt.Println()
	tur := c.suite("rodinia", "rtx4000", 3, &c.rodiniaTuring)
	c.emit("Figure 5 (bottom). Rodinia Top-Down level 1 on Turing (Quadro RTX 4000)",
		level1Header, level1Rows(tur))
}

// level2Rows normalises components to total IPC degradation, as the paper's
// level-2/3 figures do.
func level2Rows(results []*gputopdown.AppResult) [][]string {
	var rows [][]string
	n := float64(len(results))
	var avg [6]float64
	for _, r := range results {
		a := r.Aggregate
		deg := a.Degradation()
		norm := func(v float64) float64 {
			if deg <= 0 {
				return 0
			}
			return v / deg
		}
		vals := [6]float64{norm(a.Branch), norm(a.Replay), norm(a.Fetch),
			norm(a.Decode), norm(a.Core), norm(a.Memory)}
		rows = append(rows, []string{r.App, pct(vals[0]), pct(vals[1]),
			pct(vals[2]), pct(vals[3]), pct(vals[4]), pct(vals[5])})
		for i := range avg {
			avg[i] += vals[i] / n
		}
	}
	rows = append(rows, []string{"AVERAGE", pct(avg[0]), pct(avg[1]),
		pct(avg[2]), pct(avg[3]), pct(avg[4]), pct(avg[5])})
	return rows
}

var level2Header = []string{"app", "branch%", "replay%", "fetch%", "decode%", "core%", "memory%"}

// level3Segments is the order the level-3 figures report.
var level3Segments = []struct {
	group string
	seg   string
}{
	{"fetch", "no_instruction"}, {"fetch", "barrier"}, {"fetch", "membar"},
	{"fetch", "branch_resolving"}, {"fetch", "sleeping"},
	{"decode", "misc"}, {"decode", "dispatch_stall"},
	{"core", "math_pipe_throttle"}, {"core", "wait"}, {"core", "tex_throttle"},
	{"memory", "long_scoreboard"}, {"memory", "imc_miss"},
	{"memory", "mio_throttle"}, {"memory", "lg_throttle"},
	{"memory", "short_scoreboard"}, {"memory", "drain"},
}

func level3Rows(results []*gputopdown.AppResult) ([]string, [][]string) {
	header := []string{"app"}
	for _, s := range level3Segments {
		header = append(header, s.seg+"%")
	}
	var rows [][]string
	avg := make([]float64, len(level3Segments))
	for _, r := range results {
		a := r.Aggregate
		deg := a.Degradation()
		row := []string{r.App}
		for i, s := range level3Segments {
			var d map[string]float64
			switch s.group {
			case "fetch":
				d = a.FetchDetail
			case "decode":
				d = a.DecodeDetail
			case "core":
				d = a.CoreDetail
			default:
				d = a.MemoryDetail
			}
			v := 0.0
			if d != nil && deg > 0 {
				v = d[s.seg] / deg
			}
			row = append(row, pct(v))
			avg[i] += v / float64(len(results))
		}
		rows = append(rows, row)
	}
	avgRow := []string{"AVERAGE"}
	for _, v := range avg {
		avgRow = append(avgRow, pct(v))
	}
	rows = append(rows, avgRow)
	return header, rows
}

func fig6(c *config) {
	res := c.suite("rodinia", "rtx4000", 3, &c.rodiniaTuring)
	c.emit("Figure 6. Rodinia Top-Down level 2 on Turing (normalised to total IPC degradation)",
		level2Header, level2Rows(res))
}

func fig7(c *config) {
	res := c.suite("rodinia", "rtx4000", 3, &c.rodiniaTuring)
	h, rows := level3Rows(res)
	c.emit("Figure 7. Rodinia Top-Down level 3 on Turing (normalised to total IPC degradation)", h, rows)
}

func fig8(c *config) {
	res := c.suite("altis", "rtx4000", 3, &c.altisTuring)
	c.emit("Figure 8. Altis Top-Down level 1 on Turing", level1Header, level1Rows(res))
}

func fig9(c *config) {
	res := c.suite("altis", "rtx4000", 3, &c.altisTuring)
	c.emit("Figure 9. Altis Top-Down level 2 on Turing (normalised to total IPC degradation)",
		level2Header, level2Rows(res))
}

func fig10(c *config) {
	res := c.suite("altis", "rtx4000", 3, &c.altisTuring)
	h, rows := level3Rows(res)
	c.emit("Figure 10. Altis Top-Down level 3 on Turing (normalised to total IPC degradation)", h, rows)
}

func dynamicRows(res *gputopdown.AppResult, kernelName string) [][]string {
	var rows [][]string
	for i, a := range res.Series(kernelName) {
		f := a.Fraction
		rows = append(rows, []string{fmt.Sprint(i), fmt.Sprintf("%.0f", a.Weight),
			pct(f(a.Retire)), pct(f(a.Divergence)), pct(f(a.Frontend)), pct(f(a.Backend))})
	}
	return rows
}

var dynamicHeader = []string{"invocation", "cycles", "retire%", "divergence%", "frontend%", "backend%"}

func fig11(c *config) {
	res := c.dynamic()
	c.emit("Figure 11. Level-1 Top-Down evolution of srad_cuda_1 on Turing",
		dynamicHeader, dynamicRows(res, "srad_cuda_1"))
}

func fig12(c *config) {
	res := c.dynamic()
	c.emit("Figure 12. Level-1 Top-Down evolution of srad_cuda_2 on Turing",
		dynamicHeader, dynamicRows(res, "srad_cuda_2"))
}

func fig13(c *config) {
	rod := c.suite("rodinia", "rtx4000", 3, &c.rodiniaTuring)
	alt := c.suite("altis", "rtx4000", 3, &c.altisTuring)
	type entry struct {
		name string
		ovh  float64
	}
	var entries []entry
	for _, r := range rod {
		entries = append(entries, entry{"rodinia/" + r.App, r.Overhead()})
	}
	for _, r := range alt {
		entries = append(entries, entry{"altis/" + r.App, r.Overhead()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	var rows [][]string
	var avg float64
	for _, e := range entries {
		rows = append(rows, []string{e.name, fmt.Sprintf("%.1f", e.ovh)})
		avg += e.ovh / float64(len(entries))
	}
	rows = append(rows, []string{"AVERAGE", fmt.Sprintf("%.1f", avg)})
	c.emit("Figure 13. Overhead of level-3 Top-Down analysis vs native execution on Turing (x)",
		[]string{"app", "overhead_x"}, rows)
}
