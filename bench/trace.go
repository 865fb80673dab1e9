package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gputopdown"
)

// span is one timed call into a layer, recorded from outside that layer.
type span struct {
	ID     int
	Parent int // 0 for a root span
	// Layer is the package the call enters ("sim", "cupti", ...); "bench"
	// for the harness's own root spans.
	Layer string
	Name  string
	// Op is the id every span of one op shares.
	Op string
	// Lane separates concurrent actors in the rendered trace.
	Lane  int
	Start time.Duration // since the recorder's origin
	End   time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how the untraced path runs the same code.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent int, layer, name, op string, lane int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Layer: layer, Name: name,
		Op: op, Lane: lane, Start: now, End: -1,
	})
	return len(r.spans)
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.dur()
}

// add records a span whose endpoints were measured elsewhere (the daemon's
// job timestamps).
func (r *recorder) add(parent int, layer, name, op string, lane int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Layer: layer, Name: name,
		Op: op, Lane: lane, Start: start.Sub(r.origin), End: end.Sub(r.origin),
	})
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of it
// that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSelf sums self time by layer over the descendants of each root span
// named rootName, and returns the smallest share of a root's duration that
// its descendants' self times account for.
func layerSelf(spans []span, rootName string) (byLayer map[string]time.Duration, minCoverage float64) {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) (span, bool) {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s, s.Name == rootName
	}
	byLayer = map[string]time.Duration{}
	covered := map[int]time.Duration{}
	for _, s := range spans {
		root, ok := rootOf(s)
		if !ok || s.ID == root.ID {
			continue
		}
		byLayer[s.Layer] += self[s.ID]
		covered[root.ID] += self[s.ID]
	}
	minCoverage = 1
	for id, c := range covered {
		if share := ratio(float64(c), float64(byID[id].dur())); share < minCoverage {
			minCoverage = share
		}
	}
	return byLayer, minCoverage
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing load, through the repository's own trace writer.
func writeChromeTrace(path string, spans []span) error {
	tr := gputopdown.NewTracer()
	for _, s := range spans {
		tr.CompleteAt(1, s.Lane, s.Layer, s.Layer+": "+s.Name, us(s.Start), us(s.dur()),
			map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := tr.WriteFile(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
