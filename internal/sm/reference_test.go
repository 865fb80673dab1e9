package sm_test

import (
	"context"
	"os"
	"strings"
	"testing"

	"gputopdown"
	"gputopdown/internal/check"
	"gputopdown/internal/gpu"
	"gputopdown/internal/sm"
)

const goldenDir = "../check/testdata/golden"

// TestReferenceEngineReproducesGoldens profiles suite applications end to end
// with every SM a reference engine — each resident warp classified from
// scratch every tick — and demands the bytes of the committed golden reports,
// which TestGoldenReports demands of the production engine: the two engines
// are equal on whole applications, not only on this package's kernels. It
// profiles check.CorpusSample, two of whose four reports the wake table used
// to get wrong (rodinia/bfs@gtx1070, binaryPartitionCG_tile8@rtx4000);
// GOLDEN_FULL=1 runs all 118.
func TestReferenceEngineReproducesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling gate skipped in -short mode")
	}
	sm.SetReferenceEngine(true)
	defer sm.SetReferenceEngine(false)
	full := os.Getenv("GOLDEN_FULL") != ""
	for _, g := range gpu.IDs() {
		ids := check.CorpusSample[g]
		if full {
			ids = check.CorpusIDs()
		}
		spec, _ := gputopdown.LookupGPU(g)
		for _, id := range ids {
			suite, name, _ := strings.Cut(id, "/")
			t.Run(g+"/"+suite+"__"+name, func(t *testing.T) {
				path := check.CorpusPath(goldenDir, g, id)
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
