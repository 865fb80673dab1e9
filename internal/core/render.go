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
	Walk(a, func(n *Node, ipc float64) {
		rows = append(rows, Row{Path: n.Path, Level: n.Depth, IPC: ipc, Fraction: a.Fraction(ipc)})
	})
	return rows
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
