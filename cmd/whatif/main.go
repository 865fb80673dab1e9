// Command whatif explores microarchitectural design points, the second
// purpose the paper gives the methodology: "to identify possible bottlenecks
// in a given GPU microarchitecture, facilitating the improvement of
// subsequent designs". It sweeps one hardware parameter across values, runs
// an application at each point and prints how the Top-Down breakdown shifts
// — answering "would a bigger constant cache fix myocyte?" in seconds
// instead of a simulator campaign.
//
// The parameter is any model value of the device spec, named by its field
// (case-insensitive; a pipe's lane count is PipeLanes.<pipe>); -h lists them.
//
// Examples:
//
//	whatif -suite rodinia -app myocyte -param IMCSize -values 2048,8192,32768
//	whatif -suite rodinia -app myocyte -param IMCMissExtra -values 160,0
//	whatif -suite rodinia -app hotspot -param L1Size -values 32768,65536,131072
//	whatif -suite altis -app gemm -param SchedulingPolicy -values gto,lrr
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"gputopdown"
	"gputopdown/internal/cliflags"
	"gputopdown/internal/core"
	"gputopdown/internal/gpu"
)

func main() {
	f := cliflags.New("whatif")
	f.Register(flag.CommandLine, cliflags.Device, cliflags.Workload, "level")
	param := flag.String("param", "", "device parameter to sweep, case-insensitive: "+strings.Join(gpu.ParamNames(), ", "))
	values := flag.String("values", "", "comma-separated values")
	flag.Parse()

	base, opts, err := f.Options()
	if err != nil {
		fatalf("%v", err)
	}
	app, err := f.SelectedApp()
	if err != nil {
		fatalf("%v", err)
	}
	var vals []string
	for _, v := range strings.Split(*values, ",") {
		if v = strings.TrimSpace(v); v != "" {
			vals = append(vals, v)
		}
	}
	if *param == "" || len(vals) == 0 {
		fatalf("missing -param / -values")
	}

	fmt.Printf("what-if: %s on %s, sweeping %s\n", app.ID(), base.Name, *param)
	fmt.Printf("%-12s %9s %8s %8s %8s %8s | %8s %8s\n",
		*param, "cycles", "retire", "diverg", "front", "back", "memory", "const")
	for _, v := range vals {
		spec := *base // copy
		if err := spec.Set(*param, v); err != nil {
			fatalf("%v", err)
		}
		spec.Name = fmt.Sprintf("%s[%s=%s]", spec.Name, *param, v)
		if err := spec.Validate(); err != nil {
			fatalf("variant %s=%s: %v", *param, v, err)
		}
		p := gputopdown.NewProfiler(&spec, opts...)
		res, err := p.ProfileApp(context.Background(), app)
		if err != nil {
			fatalf("%v", err)
		}
		// const is the constant-cache miss stalls (Fig. 7's myocyte bottleneck).
		a := res.Aggregate
		fmt.Printf("%-12s %9d %s %s %s %s | %s %s\n", v, res.NativeCycles,
			core.Pct(a, "retire", 8), core.Pct(a, "divergence", 8), core.Pct(a, "frontend", 8),
			core.Pct(a, "backend", 8), core.Pct(a, "backend/memory", 8), core.Pct(a, "backend/memory/imc_miss", 8))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "whatif: "+format+"\n", args...)
	os.Exit(1)
}
