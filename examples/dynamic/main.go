// dynamic reproduces the paper's §V.D per-invocation analysis (Figs. 11-12):
// profiling every one of srad's 100 kernel invocations individually exposes
// two execution phases that whole-application averaging would hide.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"gputopdown"
)

func main() {
	spec := gputopdown.QuadroRTX4000().WithSMs(8)
	// Level 1 needs a single profiling pass, so even 200 profiled kernel
	// invocations stay cheap.
	profiler := gputopdown.NewProfiler(spec, gputopdown.WithLevel(1))

	app, _ := gputopdown.LookupApp("altis", "srad_dynamic")
	res, err := profiler.ProfileApp(context.Background(), app)
	if err != nil {
		log.Fatal(err)
	}

	for _, kernel := range res.KernelNames() {
		series := res.Series(kernel)
		fmt.Printf("== %s: %d invocations ==\n", kernel, len(series))
		fmt.Printf("%4s %9s  %s\n", "inv", "cycles", "retire | divergence | stall  (bar = retire share)")
		for i, a := range series {
			if i%5 != 0 {
				continue
			}
			retire := a.Fraction(a.Retire)
			bar := strings.Repeat("#", int(retire*40))
			fmt.Printf("%4d %9.0f  %5.1f%% | %5.1f%% | %5.1f%%  %s\n",
				i, a.Weight, 100*retire, 100*a.Fraction(a.Divergence),
				100*a.Fraction(a.Stall), bar)
		}
		// Phase summary: first vs last quarter.
		quarter := len(series) / 4
		avg := func(as []*gputopdown.Analysis) (r, c float64) {
			for _, a := range as {
				r += a.Fraction(a.Retire) / float64(len(as))
				c += a.Weight / float64(len(as))
			}
			return
		}
		r1, c1 := avg(series[:quarter])
		r2, c2 := avg(series[len(series)-quarter:])
		fmt.Printf("phase 1 (first quarter): retire %.1f%%, %.0f cycles/invocation\n", 100*r1, c1)
		fmt.Printf("phase 2 (last quarter):  retire %.1f%%, %.0f cycles/invocation\n\n", 100*r2, c2)
	}
}
