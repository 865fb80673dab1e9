// Package obs is the observability layer for the profiling stack: a
// low-overhead span/event tracer that exports Chrome trace-event JSON
// (loadable in chrome://tracing or https://ui.perfetto.dev) and a metrics
// registry with Prometheus text exposition.
//
// The paper's operational claims — multi-pass replay costing ~13x native
// execution (Fig. 13), flush cost growing with the working set (§V.E) — are
// made observable here: every profiling session, replay pass, cache flush,
// kernel launch and analysis step becomes a span, and the profiler's
// self-metrics (passes, flush cycles, simulated cycles, wall time, replay
// overhead ratio) become counters, gauges and histograms.
//
// Every hook method is safe on a nil receiver and does nothing, so
// instrumented code paths (internal/sim, internal/cupti, internal/core) pay
// near-zero cost when observability is disabled: callers guard argument
// construction behind a nil check and the methods themselves no-op.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Track process ids: the trace is organised as two "processes", one on the
// host wall-clock axis and one on the simulated-GPU time axis.
const (
	// PIDProfiler is the wall-clock track: sessions, passes, flushes,
	// launches and analyses, timestamped with host time.
	PIDProfiler = 1
	// PIDSim is the simulated-time track: kernel spans and per-SM block
	// residency, timestamped in simulated microseconds (cycles / clock).
	PIDSim = 2
)

// Event is one Chrome trace-event. The JSON field names follow the Trace
// Event Format spec (ph "X" = complete span, "i" = instant, "C" = counter,
// "M" = metadata); ts and dur are in microseconds.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON object format of a Chrome trace.
type traceFile struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// Tracer collects trace events. It is safe for concurrent use; all hook
// methods are no-ops on a nil *Tracer.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	events []Event

	// blockDetail enables per-block dispatch instant events (high volume).
	blockDetail bool
}

// NewTracer builds an enabled tracer whose wall clock starts now.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// SetBlockDetail toggles per-block dispatch instant events, which can be
// voluminous on large grids (off by default).
func (t *Tracer) SetBlockDetail(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.blockDetail = on
	t.mu.Unlock()
}

// BlockDetail reports whether per-block instants are enabled.
func (t *Tracer) BlockDetail() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.blockDetail
}

// Now returns the wall-clock timestamp in microseconds since the tracer
// started (0 for nil). Use it to capture a span's start, then close the span
// with Complete.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return float64(time.Since(t.start).Nanoseconds()) / 1e3
}

func (t *Tracer) push(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Complete emits a complete ("X") span from startUS (a prior Now() reading)
// to the current time on the wall-clock axis.
func (t *Tracer) Complete(pid, tid int, cat, name string, startUS float64, args map[string]any) {
	if t == nil {
		return
	}
	now := t.Now()
	dur := now - startUS
	if dur < 0 {
		dur = 0
	}
	t.push(Event{Name: name, Cat: cat, Ph: "X", TS: startUS, Dur: dur, PID: pid, TID: tid, Args: args})
}

// CompleteAt emits a complete ("X") span with an explicit timestamp and
// duration in microseconds — used for simulated-time spans on PIDSim.
func (t *Tracer) CompleteAt(pid, tid int, cat, name string, tsUS, durUS float64, args map[string]any) {
	if t == nil {
		return
	}
	t.push(Event{Name: name, Cat: cat, Ph: "X", TS: tsUS, Dur: durUS, PID: pid, TID: tid, Args: args})
}

// Instant emits an instant ("i") event at tsUS.
func (t *Tracer) Instant(pid, tid int, cat, name string, tsUS float64, args map[string]any) {
	if t == nil {
		return
	}
	t.push(Event{Name: name, Cat: cat, Ph: "i", TS: tsUS, PID: pid, TID: tid, Args: args})
}

// CounterValue emits a counter ("C") sample: a named value track (Chrome
// renders one chart per pid+name; series is the line within it).
func (t *Tracer) CounterValue(pid, tid int, name, series string, tsUS, value float64) {
	if t == nil {
		return
	}
	t.push(Event{Name: name, Ph: "C", TS: tsUS, PID: pid, TID: tid,
		Args: map[string]any{series: value}})
}

// NameProcess emits the metadata event labelling a pid in the viewer.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	t.push(Event{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name}})
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the recorded events (for tests and inspection).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Reset drops all recorded events, keeping the wall-clock origin.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// WriteJSON writes the trace as a Chrome trace-event JSON object.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: WriteJSON on nil tracer")
	}
	t.mu.Lock()
	f := traceFile{TraceEvents: t.events, DisplayTimeUnit: "ms"}
	data, err := json.Marshal(f)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("obs: marshal trace: %w", err)
	}
	_, err = w.Write(data)
	return err
}

// WriteFile writes the trace JSON to a file.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteJSON(f)
}

// CyclesToUS converts simulated cycles at a core clock in MHz to simulated
// microseconds, the PIDSim time base.
func CyclesToUS(cycles uint64, clockMHz int) float64 {
	if clockMHz <= 0 {
		return float64(cycles)
	}
	return float64(cycles) / float64(clockMHz)
}
