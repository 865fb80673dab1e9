package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gputopdown/internal/check"
	"gputopdown/internal/paper"
)

// TestCorpusTablesMatchFiguresFull prints every figure from the committed
// golden corpus, as `figures -fig all` does, and requires the committed
// figures_full.txt byte for byte.
func TestCorpusTablesMatchFiguresFull(t *testing.T) {
	corpus, err := check.LoadCorpus("../../internal/check/testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../figures_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	c := &config{format: "table", w: &got}
	for _, id := range figureIDs {
		if !c.figure(id, corpus.Reports) {
			t.Fatalf("figure %s printed nothing", id)
		}
		got.WriteString("\n")
	}
	if got.String() != string(want) {
		t.Errorf("corpus tables differ from figures_full.txt (run `make golden`):\n--- got\n%s\n--- want\n%s", got.String(), want)
	}
}

// TestEmitCSVAndOut pins the -format csv text and the -out file, whose name
// is the title up to its first '.', with spaces and parentheses as '_'.
func TestEmitCSVAndOut(t *testing.T) {
	dir := t.TempDir()
	var got bytes.Buffer
	c := &config{format: "csv", outDir: dir, w: &got}
	c.emit(paper.Table{
		Title:  "Figure 4 (left). A small table",
		Header: []string{"app", "retire%", "overhead_x"},
		Rows:   []paper.Row{{Label: "a", Values: []float64{0.1234, 13.75}}, {Label: "b", Values: []float64{1, 8}}},
		Digits: 1,
	})
	const body = "app,retire%,overhead_x\na,12.3,13.8\nb,100.0,8.0\n"
	if want := "# Figure 4 (left). A small table\n" + body; got.String() != want {
		t.Errorf("csv output:\n%s\nwant:\n%s", got.String(), want)
	}
	file, err := os.ReadFile(filepath.Join(dir, "Figure_4__left_.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(file) != body {
		t.Errorf("-out file:\n%s\nwant:\n%s", file, body)
	}
}
