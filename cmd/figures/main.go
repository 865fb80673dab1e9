// Command figures prints every table and figure of the paper's evaluation
// (§V): Table IX, Figs. 4-10 (the tile sweep and the Rodinia and Altis
// analyses at levels 1-3), the srad dynamic series (Figs. 11-12) and the
// profiling overhead (Fig. 13). internal/paper computes the tables from the
// committed golden corpus (check.LoadCorpus), so this command simulates
// nothing; `make golden` re-profiles the corpus and rewrites
// figures_full.txt, its `-fig all` output.
//
// Examples:
//
//	figures -fig table9
//	figures -fig 4 -format csv
//	figures -fig all > figures_full.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gputopdown/internal/check"
	"gputopdown/internal/paper"
)

var figureIDs = []string{"table9", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13"}

type config struct {
	format string // "table" or "csv"
	outDir string // when set, every table is also written as a CSV file
	w      io.Writer
}

func main() {
	fig := flag.String("fig", "all", "figure to print: table9, 4..13, or all")
	format := flag.String("format", "table", "output format: table or csv")
	outDir := flag.String("out", "", "also write each emitted table as a CSV file into this directory")
	dir := flag.String("dir", "internal/check/testdata/golden", "golden corpus root directory")
	flag.Parse()

	c := &config{format: *format, outDir: *outDir, w: os.Stdout}
	if c.outDir != "" {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			fatalf("%v", err)
		}
	}
	corpus, err := check.LoadCorpus(*dir)
	if err != nil {
		fatalf("%v (run from the repository root or set -dir)", err)
	}
	ids := []string{*fig}
	if *fig == "all" {
		ids = figureIDs
	}
	for _, id := range ids {
		if !c.figure(id, corpus.Reports) {
			fatalf("unknown figure %q", id)
		}
		if *fig == "all" {
			fmt.Fprintln(c.w)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "figures: "+format+"\n", args...)
	os.Exit(1)
}

// figure prints the tables of one figure, separated by blank lines, reading
// its reports from src; false for an unknown id.
func (c *config) figure(id string, src paper.Source) bool {
	ts := paper.Figure(id, src)
	for i, t := range ts {
		if i > 0 {
			fmt.Fprintln(c.w)
		}
		c.emit(t)
	}
	return len(ts) > 0
}

// emit prints one table in the configured format and, when -out is set,
// writes it as a CSV file named after the title up to its first '.'.
func (c *config) emit(t paper.Table) {
	rows := [][]string{t.Header}
	for _, r := range t.Rows {
		cells := append([]string{r.Label}, r.Text...)
		for j, v := range r.Values {
			digits := t.Digits
			if strings.HasSuffix(t.Header[j+1], "%") {
				v, digits = 100*v, 1
			}
			cells = append(cells, strconv.FormatFloat(v, 'f', digits, 64))
		}
		rows = append(rows, cells)
	}
	var csv strings.Builder
	for _, r := range rows {
		csv.WriteString(strings.Join(r, ",") + "\n")
	}
	if c.outDir != "" {
		name := strings.NewReplacer(" ", "_", "(", "_", ")", "_").Replace(strings.SplitN(t.Title, ".", 2)[0])
		if err := os.WriteFile(filepath.Join(c.outDir, name+".csv"), []byte(csv.String()), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if c.format == "csv" {
		fmt.Fprintf(c.w, "# %s\n%s", t.Title, csv.String())
		return
	}
	widths := make([]int, len(t.Header))
	for _, r := range rows {
		for i, cell := range r {
			widths[i] = max(widths[i], len(cell))
		}
	}
	fmt.Fprintln(c.w, t.Title)
	for _, r := range rows {
		for i, cell := range r {
			w := widths[i] + 2
			if i == 0 {
				w = -w // the label column is left-aligned
			}
			fmt.Fprintf(c.w, "%*s", w, cell)
		}
		fmt.Fprintln(c.w)
	}
}
