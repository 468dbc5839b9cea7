package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// tracer records client-side spans around every call the benchmark makes
// into the daemon, in memory, and writes them out when the run ends. A nil
// tracer records nothing and costs one nil check per call: untraced runs
// measure the end-to-end metrics.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	scrapes []map[string]any
}

// span is one timed interval: ID and Parent link a request's spans (a
// frame's socket write under the frame), Req groups every span of one
// request. Times are nanoseconds since the run started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span at start under parent (0 for a request's root span)
// and returns its ID.
func (t *tracer) begin(name string, parent int64, start time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	req := id
	if parent != 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0))})
	return id
}

// end closes span id at end.
func (t *tracer) end(id int64, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// record is a complete span with no children.
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	t.end(t.begin(name, parent, start), end)
}

// addScrape keeps one /metrics scrape in the trace, stamped like spans.
func (t *tracer) addScrape(s scrape) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.scrapes = append(t.scrapes, map[string]any{"at_ns": int64(s.at.Sub(t.t0)), "metrics": s.v})
	t.mu.Unlock()
}

// write stores the trace as dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{
		"workload": workload,
		"spans":    t.spans,
		"scrapes":  t.scrapes,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
