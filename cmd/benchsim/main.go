// Command benchsim measures the fast-forward launch engine against the
// naive cycle-by-cycle loop on real suite applications, verifies that both
// engines produce bit-identical results, and appends a machine-readable
// entry to the BENCH_sim.json trajectory — one entry per engine generation,
// so the file records how the simulator sped up over time.
//
// The run fails (non-zero exit) when any gated reference application falls
// below its required speedup (-refs) — the regression gate the CI bench
// smoke job enforces. -compare prints per-app deltas against a baseline
// report; -cpuprofile captures a pprof profile of the measured launches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"gputopdown/internal/check"
	"gputopdown/internal/gpu"
	"gputopdown/internal/kernel"
	"gputopdown/internal/sim"
	"gputopdown/internal/sm"
	"gputopdown/internal/workloads"
)

// defaultApps spans the workload classes: the memory-latency-bound
// reference (gups), a serialized solver (myocyte), streaming bandwidth
// (triad), and a compute-bound worst case for the engine (maxflops).
const defaultApps = "altis/gups,rodinia/myocyte,shoc/triad,altis/maxflops"

// defaultRefs gates both ends of the workload spectrum: the memory-bound
// reference must keep its fast-forward win, and the compute-bound reference
// must stay within noise of the naive loop. Both floors were recalibrated
// (gups from 3.0, maxflops from 1.0) when the device model gained the
// address-sliced L2/DRAM: per-channel queues stall differently, leaving
// fewer provably idle spans to skip, and single-run maxflops jitter is
// a few percent.
const defaultRefs = "altis/gups:2.0,altis/maxflops:0.95"

type result struct {
	GPU     string  `json:"gpu"`
	Suite   string  `json:"suite"`
	App     string  `json:"app"`
	NaiveMS float64 `json:"naive_ms"`
	FastMS  float64 `json:"ff_ms"`
	Speedup float64 `json:"speedup"`
	// Identical reports that the two engines produced bit-identical
	// aggregate results (cycles and device counters over every launch).
	Identical bool `json:"identical"`
}

// entry is one trajectory element: a full benchmark run of one engine
// generation.
type entry struct {
	Engine  string             `json:"engine"`
	GPU     string             `json:"gpu"`
	Reps    int                `json:"reps"`
	Refs    map[string]float64 `json:"ref_min_speedup"`
	Results []result           `json:"results"`
}

// trajectory is the BENCH_sim.json top level: entries oldest-first.
type trajectory struct {
	Trajectory []entry `json:"trajectory"`
}

// legacyReport is the pre-trajectory single-run format, recognised on read
// so existing files upgrade in place.
type legacyReport struct {
	GPU     string   `json:"gpu"`
	Reps    int      `json:"reps"`
	Ref     string   `json:"ref"`
	RefMin  float64  `json:"ref_min_speedup"`
	Results []result `json:"results"`
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchsim: "+format+"\n", args...)
	os.Exit(1)
}

// loadTrajectory reads path in either format. A missing file yields an
// empty trajectory; a legacy single-report file becomes a one-entry
// trajectory labelled with its engine generation.
func loadTrajectory(path string) trajectory {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return trajectory{}
		}
		fatalf("read %s: %v", path, err)
	}
	var tr trajectory
	if err := json.Unmarshal(raw, &tr); err == nil && tr.Trajectory != nil {
		return tr
	}
	var old legacyReport
	if err := json.Unmarshal(raw, &old); err == nil && old.Results != nil {
		e := entry{
			Engine:  "event-ff",
			GPU:     old.GPU,
			Reps:    old.Reps,
			Refs:    map[string]float64{old.Ref: old.RefMin},
			Results: old.Results,
		}
		return trajectory{Trajectory: []entry{e}}
	}
	fatalf("%s: neither a trajectory nor a legacy benchsim report", path)
	panic("unreachable")
}

// lastEntry returns the newest trajectory entry of a report file, for
// -compare baselines.
func lastEntry(path string) entry {
	tr := loadTrajectory(path)
	if len(tr.Trajectory) == 0 {
		fatalf("%s: empty trajectory", path)
	}
	return tr.Trajectory[len(tr.Trajectory)-1]
}

// parseRefs parses "suite/app:minSpeedup,..." into the gate map.
func parseRefs(s string) map[string]float64 {
	refs := make(map[string]float64)
	if strings.TrimSpace(s) == "" {
		return refs
	}
	for _, part := range strings.Split(s, ",") {
		id, minStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			fatalf("bad ref gate %q (want suite/app:minSpeedup)", part)
		}
		min, err := strconv.ParseFloat(minStr, 64)
		if err != nil {
			fatalf("bad ref gate %q: %v", part, err)
		}
		refs[id] = min
	}
	return refs
}

// aggregate is everything a launch sequence observably produces, folded
// into one comparable value.
type aggregate struct {
	Cycles   uint64
	Counters sm.Counters
	Launches int
}

// inv is the -checks invariant checker, attached to every measured device
// when enabled; nil keeps the zero-cost disabled path.
var inv *check.Invariants

// measure runs app once under the given engine, timing only the Launch
// calls (host-side input generation is engine-independent).
func measure(app *workloads.App, spec *gpu.Spec, ff bool) (time.Duration, aggregate) {
	dev := sim.NewDevice(spec)
	dev.SetFastForward(ff)
	if inv != nil {
		dev.SetChecker(inv)
	}
	var agg aggregate
	var simTime time.Duration
	err := app.Execute(dev, func(l *kernel.Launch) error {
		start := time.Now()
		res, err := dev.Launch(l)
		simTime += time.Since(start)
		if err != nil {
			return err
		}
		agg.Cycles += res.Cycles
		agg.Counters.Add(&res.Counters)
		agg.Launches++
		return nil
	})
	if err != nil {
		fatalf("%s: %v", app.ID(), err)
	}
	return simTime, agg
}

func main() {
	gpuID := flag.String("gpu", "gtx1070", "device model: gtx1070 or rtx4000")
	appList := flag.String("apps", defaultApps, "comma-separated suite/name pairs, or 'all' for every suite app")
	reps := flag.Int("reps", 3, "repetitions per engine; engines are interleaved and the minimum is kept")
	out := flag.String("out", "BENCH_sim.json", "trajectory report path ('-' for stdout)")
	refList := flag.String("refs", defaultRefs, "comma-separated suite/app:minSpeedup gates")
	engine := flag.String("engine", "sliced-ff", "trajectory entry label for this engine generation")
	compare := flag.String("compare", "", "baseline report to print per-app deltas against (legacy or trajectory format)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measured launches to this file")
	checks := flag.Bool("checks", false, "assert simulator conservation laws on every measured run (internal/check; perturbs timings — not for record-keeping runs)")
	flag.Parse()

	if *checks {
		inv = check.New()
		defer func() {
			if err := inv.Err(); err != nil {
				fatalf("invariant checks failed:\n%v", err)
			}
			fmt.Fprintln(os.Stderr, "benchsim: invariant checks passed")
		}()
	}

	spec, ok := gpu.Lookup(*gpuID)
	if !ok {
		fatalf("unknown GPU %q", *gpuID)
	}
	refs := parseRefs(*refList)

	var apps []*workloads.App
	if *appList == "all" {
		for _, s := range workloads.Suites() {
			apps = append(apps, workloads.BySuite(s)...)
		}
	} else {
		for _, id := range strings.Split(*appList, ",") {
			suite, name, ok := strings.Cut(strings.TrimSpace(id), "/")
			if !ok {
				fatalf("bad app id %q (want suite/name)", id)
			}
			a, ok := workloads.Lookup(suite, name)
			if !ok {
				fatalf("unknown app %s/%s", suite, name)
			}
			apps = append(apps, a)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	cur := entry{Engine: *engine, GPU: *gpuID, Reps: *reps, Refs: refs}
	gateFailed := false
	refsSeen := make(map[string]bool)
	for _, a := range apps {
		var naive, fast time.Duration = 1 << 62, 1 << 62
		var naiveAgg, fastAgg aggregate
		// Interleave engines so slow drift in machine load hits both
		// equally; keep the per-engine minimum.
		for r := 0; r < *reps; r++ {
			if d, g := measure(a, spec, false); d < naive {
				naive, naiveAgg = d, g
			}
			if d, g := measure(a, spec, true); d < fast {
				fast, fastAgg = d, g
			}
		}
		res := result{
			GPU:       *gpuID,
			Suite:     a.Suite,
			App:       a.Name,
			NaiveMS:   float64(naive.Microseconds()) / 1000,
			FastMS:    float64(fast.Microseconds()) / 1000,
			Speedup:   float64(naive) / float64(fast),
			Identical: reflect.DeepEqual(naiveAgg, fastAgg),
		}
		cur.Results = append(cur.Results, res)
		fmt.Printf("%-8s %-28s naive=%9.1fms ff=%9.1fms speedup=%5.2fx identical=%v\n",
			*gpuID, a.ID(), res.NaiveMS, res.FastMS, res.Speedup, res.Identical)
		if !res.Identical {
			fmt.Fprintf(os.Stderr, "benchsim: %s: engines diverge (naive %+v, ff %+v)\n", a.ID(), naiveAgg, fastAgg)
			gateFailed = true
		}
		if min, gated := refs[a.ID()]; gated {
			refsSeen[a.ID()] = true
			if res.Speedup < min {
				fmt.Fprintf(os.Stderr, "benchsim: reference %s speedup %.2fx below required %.2fx\n",
					a.ID(), res.Speedup, min)
				gateFailed = true
			}
		}
	}
	for id := range refs {
		if !refsSeen[id] {
			fmt.Fprintf(os.Stderr, "benchsim: reference %s not in -apps; its speedup gate did not run\n", id)
			gateFailed = true
		}
	}

	if *compare != "" {
		printComparison(lastEntry(*compare), cur)
	}

	tr := loadTrajectory(*out)
	if *out == "-" {
		tr = trajectory{}
	}
	// Re-running the same engine generation replaces its entry in place, so
	// iterating on one machine does not grow the file.
	replaced := false
	for i := range tr.Trajectory {
		if tr.Trajectory[i].Engine == cur.Engine {
			tr.Trajectory[i] = cur
			replaced = true
			break
		}
	}
	if !replaced {
		tr.Trajectory = append(tr.Trajectory, cur)
	}
	enc, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		fatalf("encode: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	if gateFailed {
		os.Exit(1)
	}
}

// printComparison prints per-app fast-forward deltas of the current run
// against a baseline entry, matching apps by suite/name.
func printComparison(base, cur entry) {
	byID := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		byID[r.Suite+"/"+r.App] = r
	}
	ids := make([]string, 0, len(cur.Results))
	for _, r := range cur.Results {
		ids = append(ids, r.Suite+"/"+r.App)
	}
	sort.Strings(ids)
	fmt.Printf("\ncomparison vs baseline engine %q (gpu %s):\n", base.Engine, base.GPU)
	fmt.Printf("%-28s %12s %12s %8s %10s\n", "app", "base ff ms", "head ff ms", "delta", "speedup")
	for _, id := range ids {
		var c result
		for _, r := range cur.Results {
			if r.Suite+"/"+r.App == id {
				c = r
				break
			}
		}
		b, ok := byID[id]
		if !ok {
			fmt.Printf("%-28s %12s %12.1f %8s %9.2fx (not in baseline)\n", id, "-", c.FastMS, "-", c.Speedup)
			continue
		}
		delta := 0.0
		if b.FastMS > 0 {
			delta = (c.FastMS - b.FastMS) / b.FastMS * 100
		}
		fmt.Printf("%-28s %12.1f %12.1f %+7.1f%% %9.2fx (base %.2fx)\n",
			id, b.FastMS, c.FastMS, delta, c.Speedup, b.Speedup)
	}
}
