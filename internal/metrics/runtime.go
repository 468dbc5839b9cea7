package metrics

// Runtime metrics: the operational counterpart to this package's evaluation
// metrics. Where RSE and FNR/FPR grade an estimator against ground truth
// after the fact, these instruments watch a live deployment — edges
// ingested, epochs rotated, request latencies — and expose themselves in
// the Prometheus text format so any scraper can graph a cardinality
// service without this module importing one line of client library.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct{ n atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) { c.n.Add(d) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Histogram accumulates observations into cumulative buckets — the
// Prometheus histogram shape (le-labelled bucket counts plus _sum and
// _count), here over fixed upper bounds chosen at construction. Safe for
// concurrent use; Observe is a few atomic adds.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	total  atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending upper bounds
// (an implicit +Inf bucket is always present). It panics on unsorted or
// empty bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	if !sort.Float64sAreSorted(bounds) {
		panic("metrics: histogram bounds must ascend")
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// LatencyBuckets is a general-purpose latency bucket ladder in seconds,
// 100µs to ~10s, a factor ~3 apart.
func LatencyBuckets() []float64 {
	return []float64{0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Registry holds named instruments and renders them all as Prometheus text
// exposition format. Metric names must match the Prometheus charset; an
// optional label set (`k="v",k2="v2"` — pre-escaped by the caller) keys
// multiple instruments under one name, e.g. one latency histogram per
// handler. Registration order is preserved in the output.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

type metric struct {
	name, help, typ string
	series          []series
}

type series struct {
	labels string
	read   func() snapshot
}

// snapshot is one series' scrape-time reading: either a single sample or a
// full histogram.
type snapshot struct {
	value   float64
	hist    bool
	bounds  []float64
	cumul   []uint64 // cumulative per-bound counts (excluding +Inf)
	sum     float64
	count   uint64
	isCount bool // render as integer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) attach(name, help, typ, labels string, read func() snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.metrics {
		if m.name == name {
			if m.typ != typ {
				panic(fmt.Sprintf("metrics: %s registered as both %s and %s", name, m.typ, typ))
			}
			m.series = append(m.series, series{labels: labels, read: read})
			return
		}
	}
	r.metrics = append(r.metrics, &metric{
		name: name, help: help, typ: typ,
		series: []series{{labels: labels, read: read}},
	})
}

// Counter registers and returns a counter. labels may be empty.
func (r *Registry) Counter(name, labels, help string) *Counter {
	c := &Counter{}
	r.attach(name, help, "counter", labels, func() snapshot {
		return snapshot{value: float64(c.Value()), isCount: true}
	})
	return c
}

// Gauge registers fn as a gauge read at scrape time — the natural shape for
// values the instrumented system already maintains (shard occupancy, queue
// depth) rather than duplicates into a second variable. fn must be safe to
// call from the scrape goroutine.
func (r *Registry) Gauge(name, labels, help string, fn func() float64) {
	r.attach(name, help, "gauge", labels, func() snapshot {
		return snapshot{value: fn()}
	})
}

// Histogram registers and returns a histogram over bounds (in the unit the
// name declares; seconds for latencies, per Prometheus convention).
func (r *Registry) Histogram(name, labels, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.attach(name, help, "histogram", labels, func() snapshot {
		cumul := make([]uint64, len(h.bounds))
		var running uint64
		for i := range h.bounds {
			running += h.counts[i].Load()
			cumul[i] = running
		}
		return snapshot{
			hist: true, bounds: h.bounds, cumul: cumul,
			sum: h.Sum(), count: h.Count(),
		}
	})
	return h
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4, the format every scraper accepts).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sb strings.Builder
	for _, m := range r.metrics {
		if m.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", m.name, m.typ)
		for _, s := range m.series {
			snap := s.read()
			if !snap.hist {
				fmt.Fprintf(&sb, "%s%s %s\n", m.name, braced(s.labels), sample(snap))
				continue
			}
			for i, b := range snap.bounds {
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", m.name,
					braced(joinLabels(s.labels, fmt.Sprintf(`le="%s"`, formatBound(b)))), snap.cumul[i])
			}
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", m.name,
				braced(joinLabels(s.labels, `le="+Inf"`)), snap.count)
			fmt.Fprintf(&sb, "%s_sum%s %s\n", m.name, braced(s.labels), formatValue(snap.sum))
			fmt.Fprintf(&sb, "%s_count%s %d\n", m.name, braced(s.labels), snap.count)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func sample(s snapshot) string {
	if s.isCount {
		return fmt.Sprintf("%d", uint64(s.value))
	}
	return formatValue(s.value)
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}
