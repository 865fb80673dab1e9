package check

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestBaseConfig(t *testing.T) {
	c := BaseConfig()
	if !c.ReplayCache {
		t.Fatalf("unexpected base config: %+v", c)
	}
	if c.Tracing || c.Observer || c.Checks || c.ReusedDevice {
		t.Fatalf("base config must attach no instrumentation and run on a new device: %+v", c)
	}
}

func TestPropertiesMutateOneKnob(t *testing.T) {
	base := BaseConfig()
	seen := map[string]bool{}
	for _, p := range Properties() {
		if seen[p.Name] {
			t.Errorf("duplicate property name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Mutate(base) == base {
			t.Errorf("property %q does not change the configuration", p.Name)
		}
	}
	// The table must cover every knob the design claims is result-preserving.
	for _, want := range []string{
		"tracing-on", "observer-on", "checks-on",
		"replay-cache-off", "reused-device",
	} {
		if !seen[want] {
			t.Errorf("property %q missing from the table", want)
		}
	}
}

func TestMetamorphicAllIdentical(t *testing.T) {
	runs := 0
	run := func(cfg Config) ([]byte, error) {
		runs++
		return []byte(`{"cycles": 7}`), nil
	}
	if err := Metamorphic(run, Properties()); err != nil {
		t.Fatalf("identical results flagged: %v", err)
	}
	if want := len(Properties()) + 1; runs != want {
		t.Fatalf("%d runs, want %d (base + each property)", runs, want)
	}
}

func TestMetamorphicDivergence(t *testing.T) {
	run := func(cfg Config) ([]byte, error) {
		if !cfg.ReplayCache {
			return []byte(`{"cycles": 8}`), nil
		}
		return []byte(`{"cycles": 7}`), nil
	}
	err := Metamorphic(run, Properties())
	if err == nil {
		t.Fatal("divergent property not reported")
	}
	msg := err.Error()
	if !strings.Contains(msg, "replay-cache-off") || !strings.Contains(msg, "$.cycles") {
		t.Fatalf("error should name the property and the node: %v", err)
	}
	if strings.Contains(msg, "tracing-on:") {
		t.Fatalf("clean property named in failure: %v", err)
	}
	if !strings.Contains(msg, fmt.Sprintf("1 of %d", len(Properties()))) {
		t.Fatalf("failure tally missing: %v", err)
	}
}

func TestMetamorphicBaseFailure(t *testing.T) {
	boom := errors.New("boom")
	err := Metamorphic(func(Config) ([]byte, error) { return nil, boom }, Properties())
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "base config") {
		t.Fatalf("base failure not surfaced: %v", err)
	}
}

func TestMetamorphicPropertyFailure(t *testing.T) {
	run := func(cfg Config) ([]byte, error) {
		if cfg.ReusedDevice {
			return nil, fmt.Errorf("engine exploded")
		}
		return []byte(`{}`), nil
	}
	err := Metamorphic(run, Properties())
	if err == nil || !strings.Contains(err.Error(), "reused-device") ||
		!strings.Contains(err.Error(), "engine exploded") {
		t.Fatalf("property run failure not attributed: %v", err)
	}
}
