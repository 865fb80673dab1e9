package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"debug", int(LevelDebug), true},
		{"info", int(LevelInfo), true},
		{"", int(LevelInfo), true},
		{"WARN", int(LevelWarn), true},
		{"warning", int(LevelWarn), true},
		{"Error", int(LevelError), true},
		{"verbose", 0, false},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseLevel(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if err == nil && int(got) != c.want {
			t.Errorf("ParseLevel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelWarn, "text")
	if l.On(LevelDebug) || l.On(LevelInfo) {
		t.Error("warn-level logger claims debug/info enabled")
	}
	if !l.On(LevelWarn) || !l.On(LevelError) {
		t.Error("warn-level logger claims warn/error disabled")
	}
	l.Debug("dropped debug")
	l.Info("dropped info")
	l.Warn("kept warn")
	l.Error("kept error")
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Errorf("below-threshold records emitted:\n%s", out)
	}
	if !strings.Contains(out, "kept warn") || !strings.Contains(out, "kept error") {
		t.Errorf("at/above-threshold records missing:\n%s", out)
	}
}

func TestLoggerComponentJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, LevelDebug, "json")
	l.Component("cupti").Debug("pass complete", "pass", 3, "cycles", 1024)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("JSON log line does not parse: %v\n%s", err, buf.String())
	}
	if rec["component"] != "cupti" {
		t.Errorf("component = %v, want cupti", rec["component"])
	}
	if rec["msg"] != "pass complete" {
		t.Errorf("msg = %v, want %q", rec["msg"], "pass complete")
	}
	if rec["pass"] != float64(3) {
		t.Errorf("pass = %v, want 3", rec["pass"])
	}
	if rec["level"] != "DEBUG" {
		t.Errorf("level = %v, want DEBUG", rec["level"])
	}
}
