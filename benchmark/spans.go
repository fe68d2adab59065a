package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. Spans are recorded only from this
// directory's files, around calls into each layer's public functions;
// all spans of one op (a solver step, a farm job, one replayed layer
// call sequence) share Op.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // microseconds since the trace began
	End    float64 `json:"end"`
	Parent int     `json:"parent"` // -1 for a root
	Op     string  `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return micros(x.Sub(t.t0)) }

// begin opens a span and returns its id (-1 from a nil tracer).
func (t *tracer) begin(name string, parent int, op string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Op: op, Start: t.at(time.Now()), End: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = t.at(now)
	t.mu.Unlock()
}

// spanTotals is the per-name summary of a trace.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
}

// analyse checks that the spans form a well-formed forest — every
// parent exists and was opened first, every span is closed, children
// lie inside their parent — and returns per-name totals with self time:
// a span's duration minus the part of it its children cover.
func analyse(spans []span) ([]spanTotals, error) {
	// slack absorbs the clock reads that separate a child's end from its
	// parent's end when both close back to back.
	const slack = 1.0 // microseconds
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.ID != i {
			return nil, fmt.Errorf("span %d carries id %d", i, s.ID)
		}
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts or was never closed", i, s.Name)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return nil, fmt.Errorf("span %d (%s) names parent %d, which does not precede it", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start-slack || s.End > p.End+slack {
			return nil, fmt.Errorf("span %d (%s) [%.1f, %.1f] leaves its parent %d (%s) [%.1f, %.1f]",
				i, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op {
			return nil, fmt.Errorf("span %d (%s) belongs to op %q, its parent to %q", i, s.Name, s.Op, p.Op)
		}
		children[s.Parent] = append(children[s.Parent], i)
	}
	byName := map[string]*spanTotals{}
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self := s.End - s.Start - covered
		if self < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time %.3fus", i, s.Name, self)
		}
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.TotalUS += s.End - s.Start
		t.SelfUS += self
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out, nil
}

// traceFile is the JSON document a traced run writes at exit.
type traceFile struct {
	Env    envelope     `json:"env"`
	Totals []spanTotals `json:"totals"`
	Spans  []span       `json:"spans"`
}

func writeTrace(path string, doc traceFile) error {
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
