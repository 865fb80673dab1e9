// Command goldengen regenerates the golden-report corpus under
// internal/check/testdata/golden: one canonical JSON Top-Down report per
// corpus app (every suite app and the srad dynamic run, check.CorpusIDs)
// per evaluation GPU, profiled at the library defaults (level 3 — capped to
// 2 on the Pascal device — normalised, SMPC, fast-forward on). The corpus is
// the repository's end-to-end regression baseline: TestGoldenReports
// re-profiles every app and requires byte-identical output, so any change to
// simulator timing, counter accounting, or analysis equations shows up as a
// reviewable diff of these files.
//
// Run it via `make golden` after an intentional behavior change; on an
// unchanged tree it is a no-op (the files are byte-identical because the
// profiler is deterministic and wall-clock is zeroed by the canonical
// form). It evaluates the paper's claims (internal/paper) on the corpus
// before and after writing and prints every claim whose verdict changed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"gputopdown"
	"gputopdown/internal/check"
	"gputopdown/internal/gpu"
	"gputopdown/internal/paper"
)

func main() {
	dir := flag.String("dir", "internal/check/testdata/golden", "corpus root directory")
	workers := flag.Int("workers", runtime.NumCPU(), "concurrent profiles")
	flag.Parse()

	// The device axis is both evaluation GPUs of the paper (Table IX),
	// exercising the nvprof (CC < 7.2) and ncu metric paths.
	type job struct{ gpu, id string }
	var jobs []job
	for _, g := range gpu.IDs() {
		for _, id := range check.CorpusIDs() {
			jobs = append(jobs, job{gpu: g, id: id})
		}
		if err := os.MkdirAll(filepath.Join(*dir, g), 0o755); err != nil {
			fatalf("%v", err)
		}
	}

	before, beforeErr := check.LoadCorpus(*dir)

	var wrote atomic.Int64
	var firstErr atomic.Value
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				path := check.CorpusPath(*dir, j.gpu, j.id)
				data, err := goldenFor(j.gpu, j.id)
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("%s on %s: %w", j.id, j.gpu, err))
					continue
				}
				if old, err := os.ReadFile(path); err == nil && string(old) == string(data) {
					continue
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				wrote.Add(1)
				fmt.Printf("wrote %s\n", path)
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("goldengen: %d reports (%d rewritten, %d unchanged)\n",
		len(jobs), wrote.Load(), int64(len(jobs))-wrote.Load())

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

// goldenFor profiles one app at the corpus configuration and returns its
// canonical report bytes. The profiler configuration must match
// TestGoldenReports exactly; both sides use the library defaults.
func goldenFor(gpuID, id string) ([]byte, error) {
	spec, ok := gputopdown.LookupGPU(gpuID)
	if !ok {
		return nil, fmt.Errorf("unknown gpu %q", gpuID)
	}
	suite, app, _ := strings.Cut(id, "/")
	a, err := gputopdown.GetApp(suite, app)
	if err != nil {
		return nil, err
	}
	res, err := gputopdown.NewProfiler(spec).ProfileApp(context.Background(), a)
	if err != nil {
		return nil, err
	}
	return check.ReportJSON(res.Report())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "goldengen: "+format+"\n", args...)
	os.Exit(1)
}
