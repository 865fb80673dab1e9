package gputopdown

import (
	"fmt"
	"io"
	"sort"

	"gputopdown/internal/core"
	"gputopdown/internal/obs"
)

// Flame is the folded-stack accumulator (see internal/obs); NewFlame builds
// an empty one for callers that want to mix their own stacks in.
type Flame = obs.Flame

// NewFlame builds an empty folded-stack accumulator.
func NewFlame() *Flame { return obs.NewFlame() }

// AddFlame folds an app result's Top-Down cycle attribution into f: one
// weighted stack per kernel invocation and hierarchy leaf,
//
//	gpu;suite/app;kernel;<Top-Down node>;<stall reason>  cycles
//
// weighted by the invocation's simulated cycles times the component's share
// of IPC_MAX. Level-3 analyses contribute their stall-reason leaves
// (long_scoreboard, no_instruction, ...), level-2 the four stall categories,
// level-1 only Retire/Divergence/Stall. Repeated invocations of one kernel
// fold together, so the flamegraph answers "where did the simulated cycles
// of this run go?" in any tool that reads collapsed stacks. The SM dimension
// is aggregated away by SMPC collection before analysis, so stacks start at
// the device.
func AddFlame(f *Flame, r *AppResult) {
	if f == nil || r == nil {
		return
	}
	appID := r.Suite + "/" + r.App
	for i := range r.Kernels {
		k := &r.Kernels[i]
		a := k.Analysis
		if a == nil {
			continue
		}
		cyc := float64(k.Cycles)
		add := func(w float64, frames ...string) {
			f.Add(cyc*a.Fraction(w), append([]string{r.GPU, appID, k.Kernel}, frames...)...)
		}
		add(a.Retire, "Retire")
		if a.Level < core.Level2 {
			add(a.Divergence, "Divergence")
			add(a.Stall, "Stall")
			continue
		}
		add(a.Branch, "Divergence", "Branch")
		add(a.Replay, "Divergence", "Replay")
		addCategory(add, "Frontend", "Fetch", a.Fetch, a.FetchDetail)
		addCategory(add, "Frontend", "Decode", a.Decode, a.DecodeDetail)
		addCategory(add, "Backend", "Core", a.Core, a.CoreDetail)
		addCategory(add, "Backend", "Memory", a.Memory, a.MemoryDetail)
	}
}

// addCategory emits one stall category: its level-3 stall-reason leaves when
// the analysis has them, otherwise the category itself as the leaf.
func addCategory(add func(w float64, frames ...string), group, name string, total float64, detail map[string]float64) {
	if len(detail) == 0 {
		add(total, group, name)
		return
	}
	segs := make([]string, 0, len(detail))
	for seg := range detail {
		segs = append(segs, seg)
	}
	sort.Strings(segs)
	for _, seg := range segs {
		add(detail[seg], group, name, seg)
	}
}

// WriteFlame writes the folded-stack ("collapsed") simulated-cycle
// attribution of one or more app results — the format speedscope imports
// directly and flamegraph.pl renders to SVG. Nil results are skipped.
func WriteFlame(w io.Writer, results ...*AppResult) error {
	f := NewFlame()
	for _, r := range results {
		AddFlame(f, r)
	}
	if f.Len() == 0 {
		return fmt.Errorf("gputopdown: no analyses to export as flamegraph")
	}
	return f.WriteFolded(w)
}
