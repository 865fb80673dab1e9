package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gputopdown"
	"gputopdown/internal/check"
)

// harness is one set-up of a workload: its ops bound to apps and golden
// reports and, for the daemon workload, a listening server.
type harness struct {
	w   *workload
	ops []*boundOp
	// refs holds the first report of each op that has no golden; every later
	// execution must reproduce it. It is shared by every set-up of a run, so
	// that a report that changes between set-ups is caught too.
	refs   map[string][]byte
	daemon *daemon
	// probe, when set, times calibration bursts after every op.
	probe *hostProbe
}

// newHarness performs the cold part of set-up: golden load, app and device
// lookup and, for the daemon workload, server construction and listen.
func newHarness(w *workload, goldenDir string, refs map[string][]byte) (*harness, error) {
	ops, err := bind(w, goldenDir)
	if err != nil {
		return nil, err
	}
	h := &harness{w: w, ops: ops, refs: refs}
	if w.Daemon {
		if h.daemon, err = startDaemon(nil); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *harness) close() error {
	if h.daemon == nil {
		return nil
	}
	return h.daemon.stop()
}

// verify checks an op's canonical report bytes against its golden. An op
// without a golden must launch autotuneKernels kernels and reproduce the
// bytes of its first execution.
func (h *harness) verify(b *boundOp, data []byte, kernels int) error {
	want := b.want
	if b.Autotune {
		if kernels != autotuneKernels {
			return fmt.Errorf("%s: %d kernels, want %d", b.id, kernels, autotuneKernels)
		}
		ref, ok := h.refs[b.id]
		if !ok {
			h.refs[b.id] = data
			return nil
		}
		want = ref
	}
	if !bytes.Equal(data, want) {
		return fmt.Errorf("%s: report differs from expected:\n%s", b.id, check.DiffJSON(want, data))
	}
	return nil
}

// profile runs one library op the way a caller of the root package does and
// returns the canonical report bytes.
func profile(ctx context.Context, b *boundOp, extra ...gputopdown.Option) ([]byte, int, error) {
	p := gputopdown.NewProfiler(b.spec, append(b.options(), extra...)...)
	res, err := p.ProfileApp(ctx, b.app)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", b.id, err)
	}
	data, err := check.ReportJSON(res.Report())
	if err != nil {
		return nil, 0, fmt.Errorf("%s: render report: %w", b.id, err)
	}
	return data, len(res.Kernels), nil
}

// opSample is one op as a sweep executed it.
type opSample struct {
	Op int // index into the harness's ops
	// Wall is the client-observed latency: the ProfileApp call plus report
	// render, or submit to report decoded.
	Wall       time.Duration
	AllocBytes uint64
	Mallocs    uint64
}

// timed runs f and returns its wall time and the process's allocation deltas
// across it.
func timed(f func() error) (opSample, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return opSample{
		Wall:       wall,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
	}, err
}

// sweepResult is what one sweep measured. Wall, AllocBytes and Mallocs are
// sums over its ops: what the harness does between ops (verification,
// calibration bursts) is in none of them.
type sweepResult struct {
	Wall       time.Duration
	AllocBytes uint64
	Mallocs    uint64
	// Ops holds the ops that succeeded, in execution order.
	Ops []opSample
	// Jobs holds the daemon's per-job detail; nil for library sweeps.
	Jobs      []jobSample
	Attempted int
	Failures  []error
}

// sweep executes every op once in an order drawn from rng: as jobs when the
// harness has a daemon, as library calls otherwise. rec is nil on untraced
// sweeps; the daemon's client records its spans into it.
func (h *harness) sweep(ctx context.Context, rng *rand.Rand, rec *recorder) sweepResult {
	if h.daemon == nil {
		return h.librarySweep(ctx, rng)
	}
	client := h.daemon.client()
	var jobs []jobSample
	res := h.each(rng, func(b *boundOp) (opSample, error) {
		s, job, err := h.daemon.runJob(ctx, client, h, b, rec)
		if err == nil {
			jobs = append(jobs, job)
		}
		return s, err
	})
	res.Jobs = jobs
	return res
}

// librarySweep executes the ops as ProfileApp calls, each on a fresh Profiler
// built with the op's options plus extra.
func (h *harness) librarySweep(ctx context.Context, rng *rand.Rand, extra ...gputopdown.Option) sweepResult {
	return h.each(rng, func(b *boundOp) (opSample, error) {
		var data []byte
		var kernels int
		s, err := timed(func() (err error) {
			data, kernels, err = profile(ctx, b, extra...)
			return err
		})
		if err == nil {
			err = h.verify(b, data, kernels)
		}
		return s, err
	})
}

// each runs one op after another from this goroutine, in an order drawn from
// rng (the same seed gives the same sequence of orders) and starting from a
// collected heap, which keeps the garbage of the sweep before
// from being charged to this one at a moment the GC picks. A profiler's
// callers wait for its reply, so the loop is closed: the next op starts once
// the one before has been verified.
func (h *harness) each(rng *rand.Rand, one func(*boundOp) (opSample, error)) sweepResult {
	res := sweepResult{Attempted: len(h.ops)}
	runtime.GC()
	for _, i := range rng.Perm(len(h.ops)) {
		s, err := one(h.ops[i])
		h.probe.follow(s.Wall)
		res.Wall += s.Wall
		res.AllocBytes += s.AllocBytes
		res.Mallocs += s.Mallocs
		if err != nil {
			res.Failures = append(res.Failures, err)
			continue
		}
		s.Op = i
		res.Ops = append(res.Ops, s)
	}
	return res
}

// setUp is one complete set-up as a user pays it before steady state: the
// cold part plus the first execution of every op, during which lazy
// initialisation runs and caches fill. The time it returns is the cold part's
// plus the ops'.
func setUp(ctx context.Context, w *workload, goldenDir string, refs map[string][]byte, rng *rand.Rand, probe *hostProbe) (*harness, sweepResult, time.Duration, error) {
	start := time.Now()
	h, err := newHarness(w, goldenDir, refs)
	if err != nil {
		return nil, sweepResult{}, 0, err
	}
	h.probe = probe
	cold := time.Since(start)
	first := h.sweep(ctx, rng, nil)
	return h, first, cold + first.Wall, nil
}
