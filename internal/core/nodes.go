package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
)

// A Node is one component of the Top-Down hierarchy (Fig. 3). A row of Nodes
// holds its IPC in the Analysis field named Name; a stall category holds its
// level-3 breakdown, one entry per leaf, in the field Name+"Detail".
type Node struct {
	Name  string // printed name: the Analysis field, or a leaf's ncu segment
	Path  string // Row.Path, e.g. "frontend/fetch/barrier"
	Depth int
	// MinLevel and MaxLevel bound the analysis levels that show the node.
	MinLevel, MaxLevel int
	// Nvprof and NCU are a stall category's nvprof stall metrics (Tables III
	// and V) and ncu stall segments (Tables VI and VIII), in counter
	// request order.
	Nvprof, NCU []string
	// Children are the rows one level down; Leaves, a stall category's ncu
	// segments in name order, exist on the ncu path only.
	Children, Leaves []*Node
	Frames           []string // printed names from the root down to the node

	field, detail int                 // Analysis field indexes, -1 for none
	metrics       map[string][]string // a stall category's metrics by tool
	parent        *Node
}

// Nodes is the one statement of the hierarchy and of Tables III-VIII, in
// depth-first order. Rows are row(name, path, minLevel, maxLevel, nvprof
// metrics, ncu segments).
var Nodes = resolve([]*Node{
	row("Retire", "retire", Level1, Level3, "", ""),
	row("Divergence", "divergence", Level1, Level3, "", ""),
	row("Branch", "divergence/branch", Level2, Level3, "", ""),
	row("Replay", "divergence/replay", Level2, Level3, "", ""),
	row("Frontend", "frontend", Level2, Level3, "", ""),
	row("Fetch", "frontend/fetch", Level2, Level3, "stall_inst_fetch stall_sync",
		"no_instruction barrier membar branch_resolving sleeping"),
	row("Decode", "frontend/decode", Level2, Level3, "stall_other", "misc dispatch_stall"),
	row("Backend", "backend", Level2, Level3, "", ""),
	row("Core", "backend/core", Level2, Level3, "stall_exec_dependency stall_pipe_busy",
		"math_pipe_throttle wait tex_throttle"),
	row("Memory", "backend/memory", Level2, Level3,
		"stall_memory_dependency stall_constant_memory_dependency stall_memory_throttle",
		"long_scoreboard imc_miss mio_throttle drain lg_throttle short_scoreboard"),
	// Stall is level 1's Frontend + Backend.
	row("Stall", "stall", Level1, Level1, "", ""),
})

// categories are the four level-2 stall categories, in table order.
var categories = slices.DeleteFunc(slices.Clone(Nodes), func(n *Node) bool { return n.NCU == nil })

func row(name, path string, minLevel, maxLevel int, nvprof, ncu string) *Node {
	n := &Node{Name: name, Path: path, MinLevel: minLevel, MaxLevel: maxLevel, field: -1, detail: -1}
	if ncu != "" {
		n.Nvprof, n.NCU = strings.Fields(nvprof), strings.Fields(ncu)
	}
	return n
}

// resolve binds each row to its Analysis fields and its parent, and builds
// a stall category's leaves.
func resolve(rows []*Node) []*Node {
	t := reflect.TypeOf(Analysis{})
	for _, n := range rows {
		f, ok := t.FieldByName(n.Name)
		if !ok || f.Type.Kind() != reflect.Float64 {
			panic("core: node " + n.Name + " names no Analysis component")
		}
		n.field, n.Frames, n.Depth = f.Index[0], []string{n.Name}, 1
		if i := strings.LastIndexByte(n.Path, '/'); i >= 0 {
			n.parent = rows[slices.IndexFunc(rows, func(p *Node) bool { return p.Path == n.Path[:i] })]
			n.parent.Children = append(n.parent.Children, n)
			n.Frames, n.Depth = append(slices.Clone(n.parent.Frames), n.Name), n.parent.Depth+1
		}
		if n.NCU == nil {
			continue
		}
		d, _ := t.FieldByName(n.Name + "Detail")
		n.detail, n.metrics = d.Index[0], map[string][]string{"nvprof": n.Nvprof}
		for _, seg := range n.NCU {
			n.metrics["ncu"] = append(n.metrics["ncu"], "smsp__warp_issue_stalled_"+seg+"_per_warp_active.pct")
			n.Leaves = append(n.Leaves, &Node{Name: seg, Path: n.Path + "/" + seg, Depth: n.Depth + 1,
				MinLevel: Level3, MaxLevel: Level3, Frames: append(slices.Clone(n.Frames), seg),
				field: -1, detail: -1, parent: n})
		}
		slices.SortFunc(n.Leaves, func(x, y *Node) int { return strings.Compare(x.Name, y.Name) })
	}
	return rows
}

func (n *Node) ipc(a *Analysis) *float64 {
	return reflect.ValueOf(a).Elem().Field(n.field).Addr().Interface().(*float64)
}

func (n *Node) detailOf(a *Analysis) *map[string]float64 {
	return reflect.ValueOf(a).Elem().Field(n.detail).Addr().Interface().(*map[string]float64)
}

// Detail returns a stall category's level-3 breakdown in a; nil for any
// other node, or when a has none.
func (n *Node) Detail(a *Analysis) map[string]float64 {
	if n.detail < 0 {
		return nil
	}
	return *n.detailOf(a)
}

// IPC returns the node's IPC contribution in a.
func (n *Node) IPC(a *Analysis) float64 {
	if n.field < 0 {
		return n.parent.Detail(a)[n.Name]
	}
	return *n.ipc(a)
}

// In reports whether a's breakdown shows the node: a row at the levels it
// names, a leaf where a has its category's level-3 breakdown.
func (n *Node) In(a *Analysis) bool {
	return a.Level >= n.MinLevel && a.Level <= n.MaxLevel && (n.field >= 0 || n.parent.Detail(a) != nil)
}

// IsLeaf reports whether a's breakdown shows the node and nothing below it.
func (n *Node) IsLeaf(a *Analysis) bool {
	in := func(c *Node) bool { return c.In(a) }
	return n.In(a) && !slices.ContainsFunc(n.Children, in) && !slices.ContainsFunc(n.Leaves, in)
}

// Walk calls fn on every component of a's breakdown, depth-first in table
// order, a stall category's leaves after it.
func Walk(a *Analysis, fn func(n *Node, ipc float64)) {
	for _, n := range Nodes {
		if n.In(a) {
			fn(n, *n.ipc(a))
			for _, l := range n.Leaves {
				if l.In(a) {
					fn(l, l.IPC(a))
				}
			}
		}
	}
}

// Pct renders the share of IPC_MAX of the component at path in a as a
// percentage, right-aligned in width columns, or a "-" there when a's
// breakdown does not show it.
func Pct(a *Analysis, path string, width int) string {
	s := fmt.Sprintf("%*s", width, "-")
	Walk(a, func(n *Node, ipc float64) {
		if n.Path == path {
			s = fmt.Sprintf("%*.1f%%", width-1, 100*a.Fraction(ipc))
		}
	})
	return s
}
