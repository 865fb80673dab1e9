// Command bench is the repository's benchmark: four fixed workloads driven
// through the public API (the root gputopdown package, the v1 HTTP job API and
// the exported functions of internal/*), every report verified byte-for-byte
// against the golden corpus.
//
//	bash bench/run.sh -workload compute -seed 1            end-to-end metrics
//	bash bench/run.sh -workload compute -seed 1 -trace 1   per-layer metrics + Chrome trace
//	bash bench/run.sh -aa 5                                A/A check of the benchmark itself
//
// End-to-end numbers come from untraced runs. A traced run re-drives the same
// ops through the layer seams from outside and reports where the time goes.
// The last line of standard output is the result as one JSON object; the
// indented JSON document before it adds host facts and the raw samples.
// README.md explains every name.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// minSamples is the fewest timed sweeps, and so set-ups, a run reports a
// median over.
const minSamples = 3

type config struct {
	w         *workload
	seed      int64
	seconds   float64
	goldenDir string
	traceOut  string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is what a run prints before its result line: everything needed to
// tell a slow host phase from a code change.
type detail struct {
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Ops      []string `json:"ops"`
	Seed     int64    `json:"seed"`
	Traced   bool     `json:"traced"`
	Host     hostInfo `json:"host"`
	// Samples holds the raw values behind the result, in execution order:
	// per set-up, per sweep, per burst, and each op's median latency. Wall
	// times here are as measured, not divided by the slowdown.
	Samples map[string][]float64 `json:"samples"`
	// SetUpSlowdown and SweepSlowdown are how many times slower than nominal
	// the calibration bursts ran during the set-ups and the timed sweeps; the
	// result's wall times are the measured ones divided by them.
	SetUpSlowdown float64 `json:"setup_slowdown,omitempty"`
	SweepSlowdown float64 `json:"sweep_slowdown,omitempty"`
	// SweepMinS and the quartiles describe the timed sweeps' measured wall
	// times.
	SweepMinS float64  `json:"sweep_min_s"`
	SweepQ1S  float64  `json:"sweep_q1_s"`
	SweepQ3S  float64  `json:"sweep_q3_s"`
	Failures  []string `json:"failures,omitempty"`
	TraceFile string   `json:"trace_file,omitempty"`
	Result    result   `json:"result"`
}

// tally counts ops attempted and failed across a run's phases.
type tally struct {
	attempted int
	failures  []error
}

func (t *tally) add(s sweepResult) {
	t.attempted += s.Attempted
	t.failures = append(t.failures, s.Failures...)
}

// finish builds the result from the named metrics, checking that the run
// produced exactly the metrics defs declares.
func (t *tally) finish(defs []metricDef, values map[string]float64) (result, error) {
	res := result{
		Correct:   len(t.failures) == 0,
		Attempted: t.attempted,
		Failed:    len(t.failures),
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return result{}, fmt.Errorf("%d metrics measured, %d declared", len(values), len(defs))
	}
	return res, nil
}

func newDetail(cfg config, host hostInfo, traced bool) *detail {
	d := &detail{
		Workload: cfg.w.Name, Why: cfg.w.Why, Seed: cfg.seed, Traced: traced,
		Host: host, Samples: map[string][]float64{},
	}
	for _, o := range cfg.w.Ops {
		d.Ops = append(d.Ops, o.ID())
	}
	return d
}

// recordSweeps stores the raw samples of the timed sweeps.
func (d *detail) recordSweeps(sweeps []sweepResult) {
	for _, s := range sweeps {
		d.Samples["sweep_raw_s"] = append(d.Samples["sweep_raw_s"], s.Wall.Seconds())
		d.Samples["alloc_mb"] = append(d.Samples["alloc_mb"], float64(s.AllocBytes)/1e6)
		d.Samples["mallocs_k"] = append(d.Samples["mallocs_k"], float64(s.Mallocs)/1e3)
	}
	walls := d.Samples["sweep_raw_s"]
	d.SweepMinS = slices.Min(walls)
	if len(walls) >= 2 {
		d.SweepQ1S, d.SweepQ3S = quartiles(walls)
	}
}

// opMedians returns each op's median latency over the sweeps, in
// milliseconds, for the ops that succeeded at least once.
func opMedians(sweeps []sweepResult, nOps int) []float64 {
	byOp := make([][]float64, nOps)
	for _, s := range sweeps {
		for _, o := range s.Ops {
			byOp[o.Op] = append(byOp[o.Op], ms(o.Wall))
		}
	}
	var medians []float64
	for _, v := range byOp {
		if len(v) > 0 {
			medians = append(medians, median(v))
		}
	}
	return medians
}

// runEndToEnd is an untraced run: rounds until cfg.seconds have passed and
// minSamples set-ups and timed sweeps are in. A round sets up afresh; its first
// pass over the ops completes the set-up. On the daemon workload, whose server
// keeps a profiler per spec, a second pass resubmits every spec to the warm
// server, and that is the timed sweep. A library op leaves nothing behind, so
// there the first pass is the timed sweep too, except in the first round,
// which warms the process up. Calibration bursts run between the ops, and wall
// times are divided by how much slower than nominal they ran (host.go).
func runEndToEnd(ctx context.Context, cfg config) (*detail, error) {
	host := probeHost()
	rng := rand.New(rand.NewSource(cfg.seed))
	refs := map[string][]byte{}
	d := newDetail(cfg, host, false)
	var t tally

	var sweeps []sweepResult
	setUpProbe, sweepProbe := &hostProbe{}, &hostProbe{}
	start := time.Now()
	for round := 0; len(sweeps) < minSamples || time.Since(start).Seconds() < cfg.seconds; round++ {
		mark := len(setUpProbe.burstsMS)
		h, first, took, err := setUp(ctx, cfg.w, cfg.goldenDir, refs, rng, setUpProbe)
		if err != nil {
			return nil, err
		}
		t.add(first)
		d.Samples["setup_raw_s"] = append(d.Samples["setup_raw_s"], took.Seconds())
		switch {
		case cfg.w.Daemon:
			h.probe = sweepProbe
			s := h.sweep(ctx, rng, nil)
			t.add(s)
			sweeps = append(sweeps, s)
		case round > 0:
			// The set-up's pass and its bursts are the timed sweep's too.
			sweeps = append(sweeps, first)
			sweepProbe.burstsMS = append(sweepProbe.burstsMS, setUpProbe.burstsMS[mark:]...)
		}
		if err := h.close(); err != nil {
			return nil, err
		}
	}
	d.recordSweeps(sweeps)
	d.Samples["setup_burst_ms"] = setUpProbe.burstsMS
	d.Samples["sweep_burst_ms"] = sweepProbe.burstsMS
	d.SetUpSlowdown = slowdown(setUpProbe.burstsMS)
	d.SweepSlowdown = slowdown(sweepProbe.burstsMS)
	latencies := opMedians(sweeps, len(cfg.w.Ops))
	d.Samples["op_raw_ms"] = latencies

	res, err := t.finish(endToEnd, map[string]float64{
		"setup_s":    median(d.Samples["setup_raw_s"]) / d.SetUpSlowdown,
		"sweep_s":    median(d.Samples["sweep_raw_s"]) / d.SweepSlowdown,
		"alloc_mb":   median(d.Samples["alloc_mb"]),
		"mallocs_k":  median(d.Samples["mallocs_k"]),
		"job_p50_ms": percentile(latencies, 0.50) / d.SweepSlowdown,
		"job_p80_ms": percentile(latencies, 0.80) / d.SweepSlowdown,
	})
	if err != nil {
		return nil, err
	}
	d.Result = res
	for _, f := range t.failures {
		d.Failures = append(d.Failures, f.Error())
	}
	return d, nil
}

// emit prints the detail document and then the result as the last line.
func emit(d *detail) error {
	doc, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	line, err := json.Marshal(d.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", doc, line)
	return err
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: compute, memory, replay or daemon")
		seed         = flag.Int64("seed", 1, "seed of the op order; the same seed gives the same order")
		seconds      = flag.Float64("seconds", 20, "how long the rounds of set-up and timed sweep go on (never fewer than 3 timed sweeps)")
		traced       = flag.Int("trace", 0, "1 re-drives the ops through the layer seams and reports the per-layer metrics; 0 reports the end-to-end metrics")
		traceOut     = flag.String("trace-out", "", "where a traced run writes its Chrome trace (default .bench_build/trace_<workload>.json)")
		goldenDir    = flag.String("golden", filepath.FromSlash("internal/check/testdata/golden"), "golden report corpus")
		aa           = flag.Int("aa", 0, "run k interleaved pairs of untraced runs per workload and compare the two sides' medians against each metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(2, fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *aa > 0 {
		os.Exit(runAA(*aa, *workloadName, *seconds, *goldenDir))
	}
	w, ok := lookupWorkload(*workloadName)
	if !ok {
		fail(2, fmt.Errorf("unknown workload %q (want compute, memory, replay or daemon)", *workloadName))
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, goldenDir: *goldenDir, traceOut: *traceOut}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "trace_"+w.Name+".json")
	}

	run := runEndToEnd
	if *traced != 0 {
		run = runTraced
	}
	d, err := run(context.Background(), cfg)
	if err != nil {
		fail(1, err)
	}
	for _, f := range d.Failures {
		fmt.Fprintln(os.Stderr, "bench: failed op:", f)
	}
	if err := emit(d); err != nil {
		fail(1, err)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(code)
}
