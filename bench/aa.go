package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runAA checks the benchmark against itself: per workload, k pairs of
// untraced runs of this same binary, the two sides interleaved (A B, B A,
// ...) so that a host phase falls on both, each run with a seed of its own.
// It prints each side's median and quartiles per metric and returns 1 if the
// two medians of any metric differ by more than that metric's bound, or if the
// quartile spread over all 2k runs exceeds it — either would make the driver
// reject the benchmark as too noisy to judge a change with.
func runAA(k int, only string, seconds float64, goldenDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa:", err)
		return 1
	}
	workloads := allWorkloads
	if only != "" {
		w, ok := lookupWorkload(only)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: -aa: unknown workload %q\n", only)
			return 2
		}
		workloads = []*workload{w}
	}

	status := 0
	for _, w := range workloads {
		sides := [2]map[string][]float64{{}, {}}
		for i := 0; i < k; i++ {
			for _, side := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				seed := int64(2*i + side + 1)
				res, err := childRun(self, w.Name, seed, seconds, goldenDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: -aa: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: -aa: %s seed %d: %d of %d ops failed\n", w.Name, seed, res.Failed, res.Attempted)
					status = 1
				}
				for name, v := range res.Metrics {
					sides[side][name] = append(sides[side][name], v.Value)
				}
			}
		}
		fmt.Printf("%s: %d runs a side\n", w.Name, k)
		fmt.Printf("  %-11s %-4s %34s %34s %8s %8s %6s\n", "metric", "unit", "A median [q1, q3] spread", "B median [q1, q3] spread", "A vs B", "all runs", "bound")
		for _, def := range endToEnd {
			a, b := sides[0][def.Name], sides[1][def.Name]
			ma, mb := median(a), median(b)
			diff := ratio(math.Abs(ma-mb), min(ma, mb))
			verdict := "ok"
			if diff > def.Bound {
				verdict = "MEDIANS DISAGREE"
				status = 1
			}
			descA, _ := describe(a)
			descB, _ := describe(b)
			// The driver takes the spread over a set of ten runs; here that
			// is both sides' runs together (a side alone has too few for
			// quartiles when k is small). setup_s is exempt, as in the driver:
			// it is a median of a few set-ups.
			_, spreadAll := describe(append(append([]float64(nil), a...), b...))
			if def.Name != "setup_s" && spreadAll > def.Bound {
				verdict = "SPREAD OVER BOUND"
				status = 1
			}
			fmt.Printf("  %-11s %-4s %34s %34s %7.2f%% %7.1f%% %5.0f%%  %s\n",
				def.Name, def.Unit, descA, descB, 100*diff, 100*spreadAll, 100*def.Bound, verdict)
		}
	}
	return status
}

// describe formats one side's median, quartiles and spread (the distance
// between the quartiles as a share of the median).
func describe(v []float64) (string, float64) {
	m := median(v)
	if len(v) < 2 {
		return fmt.Sprintf("%.4g", m), 0
	}
	q1, q3 := quartiles(v)
	spread := ratio(q3-q1, m)
	return fmt.Sprintf("%.5g [%.5g, %.5g] %4.1f%%", m, q1, q3, 100*spread), spread
}

// childRun runs one untraced run in a child process and parses the result
// from the last line of its output.
func childRun(self, workload string, seed int64, seconds float64, goldenDir string) (*result, error) {
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-golden", goldenDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parse result line: %w", err)
	}
	return &res, nil
}
