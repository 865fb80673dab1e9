// Package cliflags declares the command-line flags the binaries under cmd/
// share — name, help text and default, each once — and turns the parsed
// values into what the library takes: a device model, a []gputopdown.Option,
// the -serve listener, and the files written when the run is over; the job
// flags go through the gputopdown.JobRequest a daemon job carries. A binary
// registers the groups (or single flags) it accepts; a default that differs
// per binary is set on the Flags value before Register.
package cliflags

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gputopdown"
	"gputopdown/internal/gpu"
	"gputopdown/internal/obs"
)

// Flag groups, as accepted by Register.
const (
	Device        = "device"        // -gpu -sms
	Workload      = "workload"      // -suite -app
	Collection    = "collection"    // -level -raw -hwpm -replay-cache -checks
	Observability = "observability" // -trace-out -metrics-out -trace-blocks -serve -flame-out -log-level -log-format -overhead
)

// Flags holds the shared flag values and, after Options, the observers they
// asked for.
type Flags struct {
	prog string

	// Job holds the job flags' values; ReplayCache stays nil unless
	// -replay-cache is given, so the daemon's default stands.
	Job gputopdown.JobRequest

	SMs    int
	Checks bool

	TraceOut, MetricsOut, FlameOut string
	TraceBlocks, Overhead          bool
	LogLevel, LogFormat            string
	// Serve is the -serve address; Open replaces it with the address it
	// bound, so ":0" reads back as the port that was picked.
	Serve string

	// Observers shared by every profiler the invocation builds. Options
	// creates the ones the flags ask for (a Registry set beforehand is kept:
	// the daemon brings its own); Finish writes them out.
	Tracer   *gputopdown.Tracer
	Registry *gputopdown.MetricsRegistry
	Logger   *gputopdown.Logger
	Flame    *gputopdown.Flame

	server *obs.Listener // the -serve listener, between Open and Finish
}

// New returns the stock defaults; prog prefixes the notes written to stderr.
func New(prog string) *Flags {
	return &Flags{prog: prog, Job: gputopdown.JobRequest{GPU: "rtx4000", Suite: "rodinia", Level: 3}, LogFormat: "text"}
}

// decls is the one declaration of every shared flag. A job flag sets a
// field of Flags.Job, so it travels with a daemon job.
var decls = []struct {
	group, name, help string
	job               bool
	at                func(*Flags) any // *string, *int, *bool or func(bool)
}{
	{Device, "gpu", "device model: " + strings.Join(gpu.IDs(), " or "), true, func(f *Flags) any { return &f.Job.GPU }},
	{Device, "sms", "override the SM count (0 = full device)", false, func(f *Flags) any { return &f.SMs }},

	{Workload, "suite", "benchmark suite: " + strings.Join(gputopdown.Suites(), ", "), true, func(f *Flags) any { return &f.Job.Suite }},
	{Workload, "app", "application to profile", true, func(f *Flags) any { return &f.Job.App }},

	{Collection, "level", "Top-Down analysis level (1-3)", true, func(f *Flags) any { return &f.Job.Level }},
	{Collection, "raw", "use the paper's raw equations (8)-(14) without normalisation", true, func(f *Flags) any { return &f.Job.RawEquations }},
	{Collection, "hwpm", "collect via HWPM sampling instead of SMPC", true, func(f *Flags) any {
		return func(on bool) {
			f.Job.Mode = ""
			if on {
				f.Job.Mode = "hwpm"
			}
		}
	}},
	{Collection, "replay-cache", "memoize byte-identical kernel invocations instead of re-simulating them", true, func(f *Flags) any {
		return func(on bool) { f.Job.ReplayCache = &on }
	}},
	{Collection, "checks", "assert simulator conservation laws during the run (internal/check); violations are reported and exit nonzero", false, func(f *Flags) any { return &f.Checks }},

	{Observability, "trace-out", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto)", false, func(f *Flags) any { return &f.TraceOut }},
	{Observability, "metrics-out", "write profiler self-metrics in Prometheus text format", false, func(f *Flags) any { return &f.MetricsOut }},
	{Observability, "trace-blocks", "include per-block dispatch instants in the trace (voluminous)", false, func(f *Flags) any { return &f.TraceBlocks }},
	{Observability, "serve", "serve live observability HTTP on this address (/metrics, /healthz, /trace, /debug/pprof/)", false, func(f *Flags) any { return &f.Serve }},
	{Observability, "flame-out", "write the simulated-cycle attribution as collapsed stacks (open in speedscope or flamegraph.pl)", false, func(f *Flags) any { return &f.FlameOut }},
	{Observability, "log-level", "structured logging level: debug, info, warn or error (empty = off)", false, func(f *Flags) any { return &f.LogLevel }},
	{Observability, "log-format", "structured log format: text or json", false, func(f *Flags) any { return &f.LogFormat }},
	{Observability, "overhead", "print a measured replay-overhead summary line per app", false, func(f *Flags) any { return &f.Overhead }},
}

// Register declares on fs the named groups and single flags, each defaulting
// to the value f holds now. A name that is neither is a programming error.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, n := range names {
		found := false
		for _, d := range decls {
			if d.group != n && d.name != n {
				continue
			}
			found = true
			switch v := d.at(f).(type) {
			case *string:
				fs.StringVar(v, d.name, *v, d.help)
			case *int:
				fs.IntVar(v, d.name, *v, d.help)
			case *bool:
				fs.BoolVar(v, d.name, *v, d.help)
			case func(bool):
				fs.BoolFunc(d.name, d.help, func(s string) error {
					on, err := strconv.ParseBool(s)
					if err == nil {
						v(on)
					}
					return err
				})
			}
		}
		if !found {
			panic("cliflags: no flag or group named " + n)
		}
	}
}

// JobFlag reports whether the named flag is a job setting, one a daemon job
// carries.
func JobFlag(name string) bool {
	for _, d := range decls {
		if d.name == name {
			return d.job
		}
	}
	return false
}

// Spec resolves a device id and applies -sms.
func (f *Flags) Spec(id string) (*gputopdown.GPUSpec, error) {
	spec, ok := gputopdown.LookupGPU(id)
	if !ok {
		return nil, fmt.Errorf("unknown GPU %q (want %s)", id, strings.Join(gpu.IDs(), " or "))
	}
	if f.SMs > 0 {
		spec = spec.WithSMs(f.SMs)
	}
	return spec, nil
}

// SelectedApp resolves -suite/-app.
func (f *Flags) SelectedApp() (*gputopdown.App, error) {
	if f.Job.App == "" {
		return nil, fmt.Errorf("missing -app")
	}
	return gputopdown.GetApp(f.Job.Suite, f.Job.App)
}

// Options turns the parsed flags into the -gpu device model and the profiler
// options they ask for (the job flags' through gputopdown.JobOptions),
// creating the tracer, registry, logger and flame accumulator that
// -trace-out, -metrics-out, -serve, -log-level and -flame-out need. The
// slice holds no resource: it can build any number of profilers, which then
// share those observers.
func (f *Flags) Options() (*gputopdown.GPUSpec, []gputopdown.Option, error) {
	spec, err := f.Spec(f.Job.GPU)
	if err != nil {
		return nil, nil, err
	}
	opts, err := gputopdown.JobOptions(&f.Job)
	if err != nil {
		return nil, nil, err
	}
	if f.Checks {
		opts = append(opts, gputopdown.WithChecks(true))
	}
	// -serve wants tracer and registry live even when no output file was
	// asked for, so the HTTP endpoints have something to expose.
	if f.TraceOut != "" || f.Serve != "" {
		f.Tracer = gputopdown.NewTracer()
		f.Tracer.SetBlockDetail(f.TraceBlocks)
	}
	if f.Registry == nil && (f.MetricsOut != "" || f.Serve != "") {
		f.Registry = gputopdown.NewMetricsRegistry()
	}
	if f.Tracer != nil || f.Registry != nil {
		opts = append(opts, gputopdown.WithObserver(f.Tracer, f.Registry))
	}
	if f.LogLevel != "" {
		if f.Logger, err = gputopdown.NewLogger(os.Stderr, f.LogLevel, f.LogFormat); err != nil {
			return nil, nil, err
		}
		opts = append(opts, gputopdown.WithLogger(f.Logger))
	}
	if f.FlameOut != "" {
		f.Flame = gputopdown.NewFlame()
	}
	return spec, opts, nil
}

// Open builds the profiler the flags describe and, under -serve, starts the
// live observability listener over the tracer and registry Options created
// (a bind failure is Open's error). The options come back too, for a caller
// that builds further profilers on the same observers. Finish stops the
// listener.
func (f *Flags) Open() (*gputopdown.Profiler, []gputopdown.Option, error) {
	spec, opts, err := f.Options()
	if err != nil {
		return nil, nil, err
	}
	p := gputopdown.NewProfiler(spec, opts...)
	if f.Serve != "" {
		svc := obs.NewServer(f.Tracer, f.Registry)
		svc.SetLogger(f.Logger)
		srv := new(obs.Listener)
		log := f.Logger.Component("obs")
		if err := srv.Start(f.Serve, svc.Handler(), log); err != nil {
			return nil, nil, fmt.Errorf("obs: %w", err)
		}
		f.server, f.Serve = srv, srv.Addr()
		log.Info("observability server listening", "addr", f.Serve)
		f.notef("observability HTTP on http://%s (/metrics /healthz /trace /debug/pprof/)", f.Serve)
	}
	return p, opts, nil
}

// Finish stops the -serve listener, writes the files the run was asked for
// (-flame-out, -trace-out, -metrics-out) and gives the -checks verdict of p.
func (f *Flags) Finish(p *gputopdown.Profiler) error {
	if f.server != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := f.server.Shutdown(ctx)
		f.Logger.Component("obs").Info("observability server stopped", "err", err)
		if err != nil {
			f.notef("stopping observability server: %v", err)
		}
		cancel()
		f.server = nil
	}
	if f.Flame != nil {
		if f.Flame.Len() == 0 {
			return fmt.Errorf("writing flamegraph: no stacks to export")
		}
		if err := f.Flame.WriteFile(f.FlameOut); err != nil {
			return fmt.Errorf("writing flamegraph: %w", err)
		}
		f.notef("wrote folded stacks to %s (import into https://speedscope.app)", f.FlameOut)
	}
	if f.Tracer != nil && f.TraceOut != "" {
		if err := f.Tracer.WriteFile(f.TraceOut); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		f.notef("wrote %d trace events to %s", f.Tracer.Len(), f.TraceOut)
	}
	if f.Registry != nil && f.MetricsOut != "" {
		if err := f.Registry.WriteFile(f.MetricsOut); err != nil {
			return fmt.Errorf("writing metrics: %w", err)
		}
		f.notef("wrote metrics to %s", f.MetricsOut)
	}
	if f.Checks {
		if err := p.CheckErr(); err != nil {
			return fmt.Errorf("invariant checks failed:\n%w", err)
		}
		f.notef("invariant checks passed")
	}
	return nil
}

func (f *Flags) notef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, f.prog+": "+format+"\n", args...)
}
