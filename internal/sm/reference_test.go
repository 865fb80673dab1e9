package sm_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gputopdown"
	"gputopdown/internal/check"
	"gputopdown/internal/gpu"
	"gputopdown/internal/sm"
)

const goldenDir = "../check/testdata/golden"

// referenceSample is the root package's goldenSample: what tier-1 profiles on
// the reference engine. Two of the four are reports the wake table used to get
// wrong (rodinia/bfs@gtx1070, binaryPartitionCG_tile8@rtx4000).
var referenceSample = map[string][]string{
	"gtx1070": {"rodinia/bfs", "shoc/triad"},
	"rtx4000": {"altis/gups", "cudasamples/binaryPartitionCG_tile8"},
}

// TestReferenceEngineReproducesGoldens profiles suite applications end to end
// with every SM a reference engine — each resident warp classified from
// scratch every tick — and demands the bytes of the committed golden reports,
// which TestGoldenReports demands of the production engine: the two engines
// are equal on whole applications, not only on this package's kernels.
// GOLDEN_FULL=1 runs all 116.
func TestReferenceEngineReproducesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling gate skipped in -short mode")
	}
	sm.SetReferenceEngine(true)
	defer sm.SetReferenceEngine(false)
	full := os.Getenv("GOLDEN_FULL") != ""
	for _, g := range gpu.IDs() {
		ids := referenceSample[g]
		if full {
			ids = nil
			for _, s := range gputopdown.Suites() {
				for _, a := range gputopdown.SuiteApps(s) {
					ids = append(ids, s+"/"+a.Name)
				}
			}
		}
		spec, _ := gputopdown.LookupGPU(g)
		for _, id := range ids {
			suite, name, _ := strings.Cut(id, "/")
			t.Run(g+"/"+suite+"__"+name, func(t *testing.T) {
				path := filepath.Join(goldenDir, g, suite+"__"+name+".json")
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run `make golden`): %v", err)
				}
				app, err := gputopdown.GetApp(suite, name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := gputopdown.NewProfiler(spec).ProfileApp(context.Background(), app)
				if err != nil {
					t.Fatal(err)
				}
				got, err := check.ReportJSON(res.Report())
				if err != nil {
					t.Fatal(err)
				}
				if d := check.DiffJSON(want, got); d != "" {
					t.Errorf("the reference engine's report differs from golden %s, which the production engine reproduces:\n%s", path, d)
				}
			})
		}
	}
}
