package gputopdown

import (
	"gputopdown/internal/core"
	"gputopdown/internal/obs"
)

// Flame is the folded-stack accumulator (see internal/obs); NewFlame builds
// an empty one for callers that want to mix their own stacks in.
type Flame = obs.Flame

// NewFlame builds an empty folded-stack accumulator.
func NewFlame() *Flame { return obs.NewFlame() }

// AddFlame folds an app result's Top-Down cycle attribution into f: one
// weighted stack per kernel invocation and leaf of its breakdown,
//
//	gpu;suite/app;kernel;<Top-Down node>;<stall reason>  cycles
//
// weighted by the invocation's simulated cycles times the component's share
// of IPC_MAX. Level-3 analyses contribute their stall-reason leaves, level-2
// the four stall categories, level-1 only Retire/Divergence/Stall. Repeated
// invocations of one kernel fold together, so the flamegraph answers "where
// did the simulated cycles of this run go?" in any tool that reads collapsed
// stacks. The SM dimension is aggregated away by SMPC collection before
// analysis, so stacks start at the device.
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
		core.Walk(a, func(n *core.Node, ipc float64) {
			if n.IsLeaf(a) {
				f.Add(cyc*a.Fraction(ipc), append([]string{r.GPU, appID, k.Kernel}, n.Frames...)...)
			}
		})
	}
}
