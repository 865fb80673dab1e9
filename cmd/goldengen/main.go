// Command goldengen regenerates the golden-report corpus under
// internal/check/testdata/golden: one canonical JSON Top-Down report per
// corpus app (every suite app and the srad dynamic run, check.CorpusIDs)
// per evaluation GPU, profiled at the library defaults (level 3 — capped to
// 2 on the Pascal device — normalised, SMPC). The corpus is the repository's
// end-to-end regression baseline: TestGoldenReports re-profiles the apps and
// requires byte-identical output, so any change to simulator timing, counter
// accounting, or analysis equations shows up as a reviewable diff of these
// files.
//
// Run it via `make golden` after an intentional behavior change; on an
// unchanged tree it writes no file (the reports are byte-identical because
// the profiler is deterministic and wall-clock is zeroed by the canonical
// form). It evaluates the paper's claims (internal/paper) on the corpus
// before and after writing and prints every claim whose verdict changed.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gputopdown"
	"gputopdown/internal/check"
	"gputopdown/internal/gpu"
	"gputopdown/internal/paper"
)

func main() {
	dir := flag.String("dir", "internal/check/testdata/golden", "corpus root directory")
	flag.Parse()

	ids := check.CorpusIDs()
	apps := make([]*gputopdown.App, len(ids))
	for i, id := range ids {
		suite, name, _ := strings.Cut(id, "/")
		app, err := gputopdown.GetApp(suite, name)
		if err != nil {
			fatalf("%v", err)
		}
		apps[i] = app
	}

	before, beforeErr := check.LoadCorpus(*dir)

	// The device axis is both evaluation GPUs of the paper (Table IX),
	// exercising the nvprof (CC < 7.2) and ncu metric paths. The profiler
	// configuration must match TestGoldenReports; both use the defaults.
	total, wrote := 0, 0
	for _, g := range gpu.IDs() {
		spec, _ := gputopdown.LookupGPU(g)
		results, err := gputopdown.NewProfiler(spec).ProfileApps(context.Background(), apps)
		if err != nil {
			fatalf("%s: %v", g, err)
		}
		if err := os.MkdirAll(filepath.Join(*dir, g), 0o755); err != nil {
			fatalf("%v", err)
		}
		for i, res := range results {
			data, err := check.ReportJSON(res.Report())
			if err != nil {
				fatalf("%s on %s: %v", ids[i], g, err)
			}
			total++
			path := check.CorpusPath(*dir, g, ids[i])
			if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, data) {
				continue
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				fatalf("%v", err)
			}
			wrote++
			fmt.Printf("wrote %s\n", path)
		}
	}
	fmt.Printf("goldengen: %d reports (%d rewritten, %d unchanged)\n", total, wrote, total-wrote)

	after, err := check.LoadCorpus(*dir)
	if err != nil {
		fatalf("%v", err)
	}
	if beforeErr != nil {
		fmt.Printf("goldengen: no complete corpus before this run (%v); claim verdicts not compared\n", beforeErr)
		return
	}
	flips := 0
	for _, cl := range paper.Claims {
		if was, is := cl.Verdict(before.Reports), cl.Verdict(after.Reports); was != is {
			flips++
			fmt.Printf("claim flipped: %s %q: %s -> %s\n", cl.Fig, cl.Sentence, was, is)
		}
	}
	fmt.Printf("goldengen: %d of %d paper claims changed verdict\n", flips, len(paper.Claims))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "goldengen: "+format+"\n", args...)
	os.Exit(1)
}
