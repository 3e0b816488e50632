package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// pass or one request share a group: the id of the outermost span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  int64  `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	group := id
	if parent > 0 {
		group = t.spans[parent-1].Group
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Group: group, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// interval returns span id's extent.
func (t *tracer) interval(id int64) interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return interval{s.Start, s.End}
}

// children returns the extents of id's closed child spans.
func (t *tracer) children(id int64) []interval {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []interval
	for _, s := range t.spans {
		if s.Parent == id && s.End >= 0 {
			out = append(out, interval{s.Start, s.End})
		}
	}
	return out
}

// durationsMS returns the durations, in milliseconds, of the closed spans
// named name whose parent is among parents (any parent when nil).
func (t *tracer) durationsMS(name string, parents []int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	want := make(map[int64]bool, len(parents))
	for _, p := range parents {
		want[p] = true
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 && (parents == nil || want[s.Parent]) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
