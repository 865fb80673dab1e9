// Names kept only because bench/ (its own module, frozen by BENCHMARK.json)
// compiles against them; nothing else may call them. The PR that next edits
// bench/ deletes this file.

package gputopdown

import "gputopdown/internal/serve"

// WithReplayWorkers does nothing.
//
// Deprecated: each launch is simulated once and its replay passes are
// accounted from that one run, so there are no replay workers to set.
func WithReplayWorkers(int) Option { return func(*Profiler) {} }

// JobBackoff is empty and does nothing.
//
// Deprecated: a gpuprofd job is one run, so there is no retry delay.
type JobBackoff = serve.Backoff

// DefaultJobBackoff returns the empty JobBackoff.
//
// Deprecated: see JobBackoff.
func DefaultJobBackoff(func() float64) JobBackoff { return JobBackoff{} }
