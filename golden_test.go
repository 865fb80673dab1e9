package gputopdown

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gputopdown/internal/check"
)

// goldenDir is the committed corpus root: one canonical report per suite app
// per evaluation GPU, regenerated with `make golden` (cmd/goldengen).
const goldenDir = "internal/check/testdata/golden"

// goldenGPUs is the corpus device axis (must match cmd/goldengen).
var goldenGPUs = []string{"gtx1070", "rtx4000"}

// goldenSample is the subset TestGoldenReports re-profiles on every `go test`
// run: one app per suite spanning both metric paths, cheap enough for tier-1.
// Set GOLDEN_FULL=1 (the CI golden job does) to re-profile the whole corpus.
var goldenSample = map[string][]string{
	"gtx1070": {"rodinia/bfs", "shoc/triad"},
	"rtx4000": {"altis/gups", "cudasamples/binaryPartitionCG_tile8"},
}

func goldenPath(gpuID, suite, app string) string {
	return filepath.Join(goldenDir, gpuID, suite+"__"+app+".json")
}

// goldenProfile profiles one app at the corpus configuration (library
// defaults; must match cmd/goldengen.goldenFor) and returns canonical bytes.
func goldenProfile(t *testing.T, gpuID, suite, app string) []byte {
	t.Helper()
	spec, ok := LookupGPU(gpuID)
	if !ok {
		t.Fatalf("unknown gpu %q", gpuID)
	}
	return profileReport(t, NewProfiler(spec), suite, app)
}

// profileReport profiles one app on p and returns its canonical report bytes.
func profileReport(t *testing.T, p *Profiler, suite, app string) []byte {
	t.Helper()
	a, err := GetApp(suite, app)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ProfileApp(context.Background(), a)
	if err != nil {
		t.Fatalf("%s/%s on %s: %v", suite, app, p.Spec().Name, err)
	}
	data, err := check.ReportJSON(res.Report())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// goldenIDs lists the suite/app ids the golden tests profile on gpuID: the
// sample, or with GOLDEN_FULL=1 every suite app.
func goldenIDs(gpuID string) []string {
	if os.Getenv("GOLDEN_FULL") == "" {
		return goldenSample[gpuID]
	}
	var ids []string
	for _, s := range Suites() {
		for _, a := range SuiteApps(s) {
			ids = append(ids, s+"/"+a.Name)
		}
	}
	return ids
}

// TestGoldenCorpusComplete checks corpus shape without profiling: every suite
// app of both GPUs has a committed golden file, and no stale file outlives
// its app. Catches forgotten `make golden` after adding or renaming apps.
func TestGoldenCorpusComplete(t *testing.T) {
	want := map[string]bool{}
	for _, g := range goldenGPUs {
		for _, s := range Suites() {
			for _, a := range SuiteApps(s) {
				p := goldenPath(g, s, a.Name)
				want[p] = true
				if _, err := os.Stat(p); err != nil {
					t.Errorf("missing golden %s (run `make golden`)", p)
				}
			}
		}
	}
	for _, g := range goldenGPUs {
		entries, err := os.ReadDir(filepath.Join(goldenDir, g))
		if err != nil {
			t.Fatalf("corpus directory missing: %v", err)
		}
		for _, e := range entries {
			p := filepath.Join(goldenDir, g, e.Name())
			if !want[p] {
				t.Errorf("stale golden %s: no such suite app (run `make golden` and delete it)", p)
			}
		}
	}
}

// TestGoldenReports is the end-to-end regression gate: re-profile and demand
// byte-identity with the committed corpus, reporting a per-node diff on
// mismatch. Samples goldenSample by default; GOLDEN_FULL=1 sweeps all apps.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling gate skipped in -short mode")
	}
	for _, g := range goldenGPUs {
		for _, id := range goldenIDs(g) {
			g, id := g, id
			t.Run(g+"/"+strings.ReplaceAll(id, "/", "__"), func(t *testing.T) {
				suite, app, _ := strings.Cut(id, "/")
				want, err := os.ReadFile(goldenPath(g, suite, app))
				if err != nil {
					t.Fatalf("missing golden (run `make golden`): %v", err)
				}
				got := goldenProfile(t, g, suite, app)
				if d := check.DiffJSON(want, got); d != "" {
					t.Errorf("report diverged from golden %s:\n%s\n(if intentional, run `make golden` and review the diff)",
						goldenPath(g, suite, app), d)
				}
			})
		}
	}
}

// TestReusedProfilerReproducesGoldens: one Profiler per GPU profiles the
// golden apps forward and then in reverse, so every run after the first is on
// a device reset after a different app (and, in reverse, the same apps meet
// other predecessors), and every report must still equal its golden byte for
// byte. Samples goldenSample by default; GOLDEN_FULL=1 runs all apps.
func TestReusedProfilerReproducesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling gate skipped in -short mode")
	}
	for _, g := range goldenGPUs {
		t.Run(g, func(t *testing.T) {
			spec, _ := LookupGPU(g)
			p := NewProfiler(spec)
			ids := goldenIDs(g)
			order := append(slices.Clone(ids), ids...)
			slices.Reverse(order[len(ids):])
			for i, id := range order {
				suite, app, _ := strings.Cut(id, "/")
				want, err := os.ReadFile(goldenPath(g, suite, app))
				if err != nil {
					t.Fatalf("missing golden (run `make golden`): %v", err)
				}
				if d := check.DiffJSON(want, profileReport(t, p, suite, app)); d != "" {
					t.Errorf("run %d (%s) on the reused profiler diverged from its golden:\n%s", i, id, d)
				}
				if len(p.idle) != 1 {
					t.Fatalf("after run %d the profiler holds %d idle devices, want 1", i, len(p.idle))
				}
			}
		})
	}
}

// TestCanonicalReportRoundTrip pins JobReport.Canonical: wall-clock is the
// only field it touches, conversion is repeatable, and the original result is
// left intact.
func TestCanonicalReportRoundTrip(t *testing.T) {
	p := testProfiler(2)
	app, err := GetApp("rodinia", "bfs")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ProfileApp(context.Background(), app)
	if err != nil {
		t.Fatal(err)
	}
	res.WallSeconds = 1.5 // force a nonzero wall time
	plain := res.Report()
	canon := res.Report().Canonical()
	if plain.WallSeconds != 1.5 {
		t.Errorf("plain report wall_seconds = %v, want 1.5", plain.WallSeconds)
	}
	if canon.WallSeconds != 0 {
		t.Errorf("canonical report wall_seconds = %v, want 0", canon.WallSeconds)
	}
	if res.WallSeconds != 1.5 {
		t.Error("Report().Canonical() mutated the result")
	}
	// Everything except wall time must be identical, and canonical bytes must
	// be stable across repeated conversions of the same result.
	b1, err := check.ReportJSON(plain)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := check.ReportJSON(canon)
	if err != nil {
		t.Fatal(err)
	}
	if d := check.DiffJSON(b1, b2); d != "" {
		t.Errorf("canonical form differs beyond wall_seconds:\n%s", d)
	}
	a1, err := res.Aggregate.JSON()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := res.Aggregate.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a1) != string(a2) {
		t.Error("Analysis.JSON not stable across calls")
	}
}
