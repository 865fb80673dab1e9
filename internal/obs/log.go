// Structured leveled logging for the profiling stack, on log/slog.
//
// A *Logger is nil-safe the same way the Tracer and metric handles are: every
// method on a nil receiver is a no-op, and On reports false, so instrumented
// hot paths guard argument construction behind On and pay nothing when
// logging is disabled. Component returns a child logger carrying a
// `component` attribute ("cupti", "sim", "cache", "core", ...), so one root
// logger fans out to per-subsystem scopes that can be filtered downstream.
package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Log levels, re-exported so instrumented packages need not import log/slog.
const (
	LevelDebug = slog.LevelDebug
	LevelInfo  = slog.LevelInfo
	LevelWarn  = slog.LevelWarn
	LevelError = slog.LevelError
)

// ParseLevel resolves a -log-level flag value ("debug", "info", "warn",
// "error", case-insensitive) to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// Logger is a leveled, component-scoped structured logger. The zero value is
// not useful; build one with NewLogger. All methods are no-ops on nil.
type Logger struct {
	sl  *slog.Logger
	min slog.Level
}

// NewLogger builds a logger writing to w at the given minimum level.
// format selects the slog handler: "json" for one JSON object per line,
// anything else (canonically "text") for logfmt-style key=value lines.
func NewLogger(w io.Writer, level slog.Level, format string) *Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if strings.EqualFold(format, "json") {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return &Logger{sl: slog.New(h), min: level}
}

// Component returns a child logger whose records carry component=name.
// Component on a nil logger returns nil, so wiring code can scope
// unconditionally.
func (l *Logger) Component(name string) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{sl: l.sl.With(slog.String("component", name)), min: l.min}
}

// On reports whether records at level would be emitted (false for nil).
// Hot paths use it to skip building attribute lists entirely:
//
//	if log.On(obs.LevelDebug) {
//	        log.Debug("pass complete", "kernel", name, "cycles", cycles)
//	}
func (l *Logger) On(level slog.Level) bool {
	return l != nil && level >= l.min
}

// Log emits a record at an arbitrary level.
func (l *Logger) Log(level slog.Level, msg string, args ...any) {
	if !l.On(level) {
		return
	}
	l.sl.Log(context.Background(), level, msg, args...)
}

// Debug emits a debug record.
func (l *Logger) Debug(msg string, args ...any) { l.Log(slog.LevelDebug, msg, args...) }

// Info emits an info record.
func (l *Logger) Info(msg string, args ...any) { l.Log(slog.LevelInfo, msg, args...) }

// Warn emits a warning record.
func (l *Logger) Warn(msg string, args ...any) { l.Log(slog.LevelWarn, msg, args...) }

// Error emits an error record.
func (l *Logger) Error(msg string, args ...any) { l.Log(slog.LevelError, msg, args...) }
