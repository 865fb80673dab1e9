package core

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Row is one line of a flattened Top-Down hierarchy: the component's path
// (e.g. "backend/memory/imc_miss"), its depth, IPC contribution and share of
// IPC_MAX.
type Row struct {
	Path     string  `json:"path"`
	Level    int     `json:"level"`
	IPC      float64 `json:"ipc"`
	Fraction float64 `json:"fraction"`
}

// Rows flattens the analysis into hierarchy rows, depth-first, suitable for
// CSV/JSON export or plotting.
func (a *Analysis) Rows() []Row {
	var rows []Row
	add := func(path string, level int, v float64) {
		rows = append(rows, Row{Path: path, Level: level, IPC: v, Fraction: a.Fraction(v)})
	}
	add("retire", 1, a.Retire)
	add("divergence", 1, a.Divergence)
	if a.Level >= Level2 {
		add("divergence/branch", 2, a.Branch)
		add("divergence/replay", 2, a.Replay)
		add("frontend", 1, a.Frontend)
		add("frontend/fetch", 2, a.Fetch)
		a.addDetail(&rows, "frontend/fetch/", a.FetchDetail)
		add("frontend/decode", 2, a.Decode)
		a.addDetail(&rows, "frontend/decode/", a.DecodeDetail)
		add("backend", 1, a.Backend)
		add("backend/core", 2, a.Core)
		a.addDetail(&rows, "backend/core/", a.CoreDetail)
		add("backend/memory", 2, a.Memory)
		a.addDetail(&rows, "backend/memory/", a.MemoryDetail)
	} else {
		add("stall", 1, a.Stall)
	}
	return rows
}

func (a *Analysis) addDetail(rows *[]Row, prefix string, d map[string]float64) {
	if a.Level < Level3 || d == nil {
		return
	}
	for _, k := range sortedKeys(d) {
		*rows = append(*rows, Row{Path: prefix + k, Level: 3, IPC: d[k], Fraction: a.Fraction(d[k])})
	}
}

// CSV renders the analysis as comma-separated hierarchy rows with a header.
func (a *Analysis) CSV() string {
	var sb strings.Builder
	sb.WriteString("kernel,gpu,tool,component,level,ipc,fraction\n")
	for _, r := range a.Rows() {
		fmt.Fprintf(&sb, "%s,%s,%s,%s,%d,%.6f,%.6f\n",
			csvEscape(a.Kernel), csvEscape(a.GPU), a.Tool, r.Path, r.Level, r.IPC, r.Fraction)
	}
	return sb.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// AnalysisJSON is the stable export schema of one Top-Down breakdown: what
// Analysis.JSON marshals and what daemon reports (internal/serve) carry, so
// the two are interchangeable.
type AnalysisJSON struct {
	Kernel     string             `json:"kernel"`
	GPU        string             `json:"gpu"`
	CC         string             `json:"compute_capability"`
	Tool       string             `json:"tool"`
	Level      int                `json:"level"`
	Normalized bool               `json:"normalized"`
	IPCMax     float64            `json:"ipc_max"`
	Components []Row              `json:"components"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Export converts the analysis to its export schema; nil stays nil.
func (a *Analysis) Export() *AnalysisJSON {
	if a == nil {
		return nil
	}
	return &AnalysisJSON{
		Kernel:     a.Kernel,
		GPU:        a.GPU,
		CC:         a.CC.String(),
		Tool:       a.Tool,
		Level:      a.Level,
		Normalized: a.Normalized,
		IPCMax:     a.IPCMax,
		Components: a.Rows(),
		Metrics:    a.Metrics,
	}
}

// JSON renders the analysis as a stable JSON document including the raw
// profiler metrics it consumed.
func (a *Analysis) JSON() ([]byte, error) {
	return json.MarshalIndent(a.Export(), "", "  ")
}
