package gputopdown

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gputopdown/internal/check"
	"gputopdown/internal/gpu"
	"gputopdown/internal/sim"
)

// goldenDir is the committed corpus root, laid out as internal/check's
// corpus.go says and regenerated with `make golden` (cmd/goldengen).
const goldenDir = "internal/check/testdata/golden"

func goldenPath(gpuID, id string) string { return check.CorpusPath(goldenDir, gpuID, id) }

// goldenProfile profiles one app at the corpus configuration (library
// defaults; must match cmd/goldengen.goldenFor) on a new device and returns
// canonical bytes. The device pool is emptied first, so the golden gate runs
// on new devices and TestReusedProfilerReproducesGoldens on reset ones.
func goldenProfile(t *testing.T, gpuID, suite, app string) []byte {
	t.Helper()
	spec, ok := LookupGPU(gpuID)
	if !ok {
		t.Fatalf("unknown gpu %q", gpuID)
	}
	emptyPool()
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
// tier-1 sample (check.CorpusSample), or with GOLDEN_FULL=1 every corpus app.
func goldenIDs(gpuID string) []string {
	if os.Getenv("GOLDEN_FULL") == "" {
		return check.CorpusSample[gpuID]
	}
	return check.CorpusIDs()
}

// TestGoldenCorpusComplete checks corpus shape without profiling: every
// corpus app of both GPUs has a committed golden file, and no stale file
// outlives its app. Catches forgotten `make golden` after adding or renaming
// apps.
func TestGoldenCorpusComplete(t *testing.T) {
	want := map[string]bool{}
	for _, g := range gpu.IDs() {
		for _, id := range check.CorpusIDs() {
			p := goldenPath(g, id)
			want[p] = true
			if _, err := os.Stat(p); err != nil {
				t.Errorf("missing golden %s (run `make golden`)", p)
			}
		}
		entries, err := os.ReadDir(filepath.Join(goldenDir, g))
		if err != nil {
			t.Fatalf("corpus directory missing: %v", err)
		}
		for _, e := range entries {
			if p := filepath.Join(goldenDir, g, e.Name()); !want[p] {
				t.Errorf("stale golden %s: no such corpus app (run `make golden` and delete it)", p)
			}
		}
	}
}

// TestGoldenReports is the end-to-end regression gate: re-profile and demand
// byte-identity with the committed corpus, reporting a per-node diff on
// mismatch. Samples check.CorpusSample by default; GOLDEN_FULL=1 sweeps all
// apps.
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling gate skipped in -short mode")
	}
	for _, g := range gpu.IDs() {
		for _, id := range goldenIDs(g) {
			g, id := g, id
			t.Run(g+"/"+strings.ReplaceAll(id, "/", "__"), func(t *testing.T) {
				suite, app, _ := strings.Cut(id, "/")
				want, err := os.ReadFile(goldenPath(g, id))
				if err != nil {
					t.Fatalf("missing golden (run `make golden`): %v", err)
				}
				got := goldenProfile(t, g, suite, app)
				if d := check.DiffJSON(want, got); d != "" {
					t.Errorf("report diverged from golden %s:\n%s\n(if intentional, run `make golden` and review the diff)",
						goldenPath(g, id), d)
				}
			})
		}
	}
}

// TestReusedProfilerReproducesGoldens: one Profiler per GPU, starting from an
// empty device pool, profiles the golden apps forward and then in reverse, so
// every run after the first is on the first run's device reset after a
// different app (and, in reverse, the same apps meet other predecessors), and
// every report must still equal its golden byte for byte. Samples
// check.CorpusSample by default; GOLDEN_FULL=1 runs all apps.
func TestReusedProfilerReproducesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("profiling gate skipped in -short mode")
	}
	for _, g := range gpu.IDs() {
		t.Run(g, func(t *testing.T) {
			spec, _ := LookupGPU(g)
			emptyPool()
			p := NewProfiler(spec)
			var dev *sim.Device
			ids := goldenIDs(g)
			order := append(slices.Clone(ids), ids...)
			slices.Reverse(order[len(ids):])
			for i, id := range order {
				suite, app, _ := strings.Cut(id, "/")
				want, err := os.ReadFile(goldenPath(g, id))
				if err != nil {
					t.Fatalf("missing golden (run `make golden`): %v", err)
				}
				if d := check.DiffJSON(want, profileReport(t, p, suite, app)); d != "" {
					t.Errorf("run %d (%s) on the reused profiler diverged from its golden:\n%s", i, id, d)
				}
				devs := idle()
				if len(devs) != 1 || dev != nil && devs[0] != dev {
					t.Fatalf("after run %d the pool holds %d idle devices, want the first run's device alone", i, len(devs))
				}
				dev = devs[0]
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
