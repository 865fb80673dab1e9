package check

import "fmt"

// Metamorphic property testing: configuration knobs that change how the
// simulator does its work — not what work it does — must leave the profiled
// result bit-identical. Each Property mutates one knob away from BaseConfig;
// the engine runs the base once, then every mutation, and compares canonical
// report bytes. This catches the class of bug where a performance path
// (replay result cache, fast-forward) silently changes results.

// Config is the knob vector a metamorphic Runner receives. The zero value is
// not meaningful; start from BaseConfig.
type Config struct {
	// FastForward enables the adaptive idle-cycle skip; off runs the naive
	// cycle loop, the oracle the production loop is compared against.
	FastForward bool
	// ReplayCache enables the replay result cache.
	ReplayCache bool
	// Tracing attaches interval tracing to the run.
	Tracing bool
	// Observer attaches a progress observer (metrics sink).
	Observer bool
	// Checks attaches the in-loop invariant checker.
	Checks bool
	// ReusedDevice runs the profile on a device reset after another,
	// heavier application (more registers and shared memory per thread
	// block) ran on it, instead of on a new one.
	ReusedDevice bool
}

// BaseConfig is the reference point every property mutates away from: all
// accelerations on (the production default), no instrumentation attached.
func BaseConfig() Config {
	return Config{
		FastForward: true,
		ReplayCache: true,
	}
}

// Property is one result-preserving transformation of the configuration.
type Property struct {
	// Name identifies the property in failure output, e.g. "replay-cache-off".
	Name string
	// Mutate returns the perturbed configuration. It must not change
	// anything that legitimately alters the result (GPU, level, mode).
	Mutate func(Config) Config
}

// Properties is the standard table: every knob the paper's methodology and
// this reproduction promise to be observation-only or schedule-only.
func Properties() []Property {
	return []Property{
		{Name: "tracing-on", Mutate: func(c Config) Config { c.Tracing = true; return c }},
		{Name: "observer-on", Mutate: func(c Config) Config { c.Observer = true; return c }},
		{Name: "checks-on", Mutate: func(c Config) Config { c.Checks = true; return c }},
		{Name: "replay-cache-off", Mutate: func(c Config) Config { c.ReplayCache = false; return c }},
		{Name: "fast-forward-off", Mutate: func(c Config) Config { c.FastForward = false; return c }},
		{Name: "reused-device", Mutate: func(c Config) Config { c.ReusedDevice = true; return c }},
	}
}

// Runner executes one profile under the given configuration and returns the
// canonical report bytes (ReportJSON form). The root package injects this;
// check cannot construct a Profiler without an import cycle.
type Runner func(cfg Config) ([]byte, error)

// Metamorphic runs the base configuration once, then each property's mutated
// configuration, and returns an error naming every property whose report
// bytes diverged from the base (with a per-node diff) or whose run failed.
func Metamorphic(run Runner, props []Property) error {
	base := BaseConfig()
	want, err := run(base)
	if err != nil {
		return fmt.Errorf("base config: %w", err)
	}
	var failures []string
	for _, p := range props {
		got, err := run(p.Mutate(base))
		if err != nil {
			failures = append(failures, fmt.Sprintf("property %s: run failed: %v", p.Name, err))
			continue
		}
		if d := DiffJSON(want, got); d != "" {
			failures = append(failures, fmt.Sprintf("property %s: result diverged from base:\n%s", p.Name, d))
		}
	}
	if len(failures) == 0 {
		return nil
	}
	msg := failures[0]
	for _, f := range failures[1:] {
		msg += "\n" + f
	}
	return fmt.Errorf("%d of %d metamorphic properties violated:\n%s", len(failures), len(props), msg)
}
