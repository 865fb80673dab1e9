package main

import (
	"fmt"
	"os"
	"path/filepath"

	"gputopdown"
	"gputopdown/internal/workloads"
)

// defaultGPU is the daemon's default device, as cmd/gpuprofd's -gpu default.
const defaultGPU = "rtx4000"

// op is one unit of work: one application profiled on one GPU. A library
// workload runs it as a ProfileApp call on a fresh Profiler; the daemon
// workload submits it as a v1 job.
type op struct {
	Suite, App, GPU string
	// Workers > 1 selects WithReplayWorkers(Workers): replay passes fan out
	// across cloned devices.
	Workers int
	// Cache selects WithReplayCache(true) / "replay_cache": true.
	Cache bool
	// Autotune replaces the suite lookup with GemmAutotuneSized(64, 20),
	// which has no golden report.
	Autotune bool
}

// ID names the op in output and spans, e.g. "rodinia/gaussian@rtx4000+w2".
func (o op) ID() string {
	id := o.Suite + "/" + o.App + "@" + o.GPU
	if o.Workers > 1 {
		id += fmt.Sprintf("+w%d", o.Workers)
	}
	if o.Cache {
		id += "+cache"
	}
	return id
}

func (o op) options() []gputopdown.Option {
	var opts []gputopdown.Option
	if o.Workers > 1 {
		opts = append(opts, gputopdown.WithReplayWorkers(o.Workers))
	}
	if o.Cache {
		opts = append(opts, gputopdown.WithReplayCache(true))
	}
	return opts
}

// autotuneKernels is the launch count of GemmAutotuneSized(64, 20); from the
// third launch on every launch is byte-identical, so a fresh cache serves
// autotuneKernels-2 of them.
const autotuneKernels = 20

// workload is a fixed op list. One sweep executes every op once in a seeded
// order.
type workload struct {
	Name string
	Why  string
	Ops  []op
	// Daemon runs the ops as jobs against an in-process gpuprofd, from one
	// closed-loop client, instead of as library calls.
	Daemon bool
}

// The op lists are the issue's, cut to sweeps of three to five seconds so that
// a run (at least three set-ups and three timed sweeps) fits the driver's time
// cap; what was cut is listed in README.md. The daemon's timed sweeps resubmit
// the specs the set-up sweep submitted first, to the same server.
var allWorkloads = []*workload{
	{
		Name: "compute",
		Why:  "single-kernel ALU-bound apps: replayed native launches are nearly all of op wall time, so an sm hot-path change shows here and a memory-system or replay-engine change must not",
		Ops: []op{
			{Suite: "shoc", App: "s3d", GPU: "rtx4000"},
			{Suite: "shoc", App: "neuralnet", GPU: "rtx4000"},
			{Suite: "shoc", App: "s3d", GPU: "gtx1070"},
		},
	},
	{
		Name: "memory",
		Why:  "latency- and bandwidth-bound kernels: fast-forward skips most busy SM-cycles and memory traffic per instruction is highest, so MemSys, DRAM-queue and fast-forward changes show here, not on compute",
		Ops: []op{
			{Suite: "altis", App: "gups", GPU: "rtx4000"},
			{Suite: "altis", App: "gups", GPU: "gtx1070"},
			{Suite: "shoc", App: "devicememory", GPU: "rtx4000"},
			{Suite: "shoc", App: "triad", GPU: "rtx4000"},
		},
	},
	{
		Name: "replay",
		Why:  "many small launches, so per-launch replay work (snapshot, restore, hash, clone) weighs most; used three ways (sequential restore, clone fan-out, cache hit), so a gain for one at another's cost shows",
		Ops: []op{
			{Suite: "rodinia", App: "gaussian", GPU: "rtx4000"},
			{Suite: "rodinia", App: "gaussian", GPU: "rtx4000", Workers: 2},
			{Suite: "altis", App: "bfs", GPU: "rtx4000"},
			{Suite: "shoc", App: "sort", GPU: "rtx4000"},
			{Suite: "altis", App: "gemm_autotune", GPU: "rtx4000", Cache: true, Autotune: true},
		},
	},
	{
		Name: "daemon",
		Why:  "the only workload crossing HTTP, queue, store, JobRunner and report JSON, with repeat submissions of each spec as an autotuning or CI client makes them",
		Ops: []op{
			{Suite: "rodinia", App: "myocyte", GPU: "rtx4000", Cache: true},
			{Suite: "rodinia", App: "nn", GPU: "rtx4000", Cache: true},
			{Suite: "altis", App: "where", GPU: "rtx4000", Cache: true},
			{Suite: "altis", App: "dwt2d", GPU: "rtx4000"},
			{Suite: "rodinia", App: "myocyte", GPU: "gtx1070"},
			{Suite: "altis", App: "where", GPU: "gtx1070"},
		},
		Daemon: true,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// boundOp is an op resolved against the registries, with its expected report.
type boundOp struct {
	op
	id   string
	spec *gputopdown.GPUSpec
	app  *gputopdown.App
	// want is the golden report's bytes; nil for an Autotune op, which has
	// no golden (see harness.refs).
	want []byte
}

// bind resolves the workload's ops and loads their golden reports.
func bind(w *workload, goldenDir string) ([]*boundOp, error) {
	out := make([]*boundOp, 0, len(w.Ops))
	for _, o := range w.Ops {
		b := &boundOp{op: o, id: o.ID()}
		var ok bool
		if b.spec, ok = gputopdown.LookupGPU(o.GPU); !ok {
			return nil, fmt.Errorf("%s: unknown gpu %q", b.id, o.GPU)
		}
		if o.Autotune {
			b.app = workloads.GemmAutotuneSized(64, autotuneKernels)
		} else {
			var err error
			if b.app, err = gputopdown.GetApp(o.Suite, o.App); err != nil {
				return nil, fmt.Errorf("%s: %w", b.id, err)
			}
			path := filepath.Join(goldenDir, o.GPU, o.Suite+"__"+o.App+".json")
			if b.want, err = os.ReadFile(path); err != nil {
				return nil, fmt.Errorf("%s: golden report: %w", b.id, err)
			}
		}
		out = append(out, b)
	}
	return out, nil
}
