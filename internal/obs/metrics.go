package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count. It is atomic so sinks shared
// across sweep workers (the cache hit/miss counters) stay race-free; the
// totals are deterministic whenever the counted events are, regardless of
// interleaving. A nil *Counter absorbs updates without allocating.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (slot occupancy, queue depth) that also
// tracks its high-water mark. A nil *Gauge absorbs updates.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the current level and raises the high-water mark if needed.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.raise(v)
}

// Add shifts the current level by d (negative to lower it).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.raise(g.v.Add(d))
}

func (g *Gauge) raise(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value returns the current level (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark (0 for a nil gauge).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram counts observations into fixed buckets defined by inclusive
// upper bounds, with an implicit +Inf overflow bucket. Bounds are fixed at
// registration so the snapshot shape is stable. A nil *Histogram absorbs
// observations.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64
	sum    float64
	n      int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search without sort.SearchFloat64s: bounds are inclusive
	// upper edges (v ≤ bound lands in the bucket), and len(bounds) is
	// small anyway.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// metricKind discriminates the registry's entries.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type metricEntry struct {
	name string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics and snapshots them in registration order —
// the order is part of the export contract, so the same registration
// sequence always produces byte-identical snapshots. Registration is
// idempotent: asking for an existing name of the same kind returns the
// existing instrument (a histogram additionally requires identical bounds);
// a kind or bounds mismatch panics, since two call sites disagreeing about
// a metric is a programming error worth failing loudly on.
//
// A nil *Registry hands out nil instruments, which absorb updates — so code
// can unconditionally register and record with observability off.
type Registry struct {
	mu      sync.Mutex
	index   map[string]int
	entries []metricEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// Counter returns the counter registered under name, creating it on first
// request. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		e := r.entries[i]
		if e.kind != kindCounter {
			panic(fmt.Sprintf("obs: metric %q already registered as %s", name, e.kind))
		}
		return e.c
	}
	c := &Counter{}
	r.add(metricEntry{name: name, kind: kindCounter, c: c})
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// request. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		e := r.entries[i]
		if e.kind != kindGauge {
			panic(fmt.Sprintf("obs: metric %q already registered as %s", name, e.kind))
		}
		return e.g
	}
	g := &Gauge{}
	r.add(metricEntry{name: name, kind: kindGauge, g: g})
	return g
}

// Histogram returns the histogram registered under name with the given
// inclusive upper bounds (ascending; the +Inf overflow bucket is implicit),
// creating it on first request. A nil registry returns a nil histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.index[name]; ok {
		e := r.entries[i]
		if e.kind != kindHistogram {
			panic(fmt.Sprintf("obs: metric %q already registered as %s", name, e.kind))
		}
		if !equalBounds(e.h.bounds, bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with different bounds", name))
		}
		return e.h
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]int64, len(bounds)+1)}
	r.add(metricEntry{name: name, kind: kindHistogram, h: h})
	return h
}

func (r *Registry) add(e metricEntry) {
	r.index[e.name] = len(r.entries)
	r.entries = append(r.entries, e)
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Len returns the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// WriteSnapshot writes every metric, in registration order, as an indented
// JSON document:
//
//	{
//	  "metrics": [
//	    {"name": "sweep.cache.hits", "kind": "counter", "value": 42},
//	    {"name": "up.slots.map.busy", "kind": "gauge", "value": 0, "max": 24},
//	    {"name": "up.job.seconds", "kind": "histogram", "count": 3, "sum": 1.5,
//	     "buckets": [{"le": 1, "count": 2}, {"le": "+Inf", "count": 3}]}
//	  ]
//	}
//
// Registration order plus hand-rolled number formatting make the output
// byte-stable. A nil registry writes an empty document.
func (r *Registry) WriteSnapshot(w io.Writer) error {
	var b []byte
	b = append(b, "{\n  \"metrics\": ["...)
	if r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
		for i := range r.entries {
			e := &r.entries[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {"...)
			b = append(b, `"name": `...)
			b = appendJSONString(b, e.name)
			b = append(b, `, "kind": "`...)
			b = append(b, e.kind.String()...)
			b = append(b, '"')
			switch e.kind {
			case kindCounter:
				b = append(b, `, "value": `...)
				b = appendInt(b, e.c.Value())
			case kindGauge:
				b = append(b, `, "value": `...)
				b = appendInt(b, e.g.Value())
				b = append(b, `, "max": `...)
				b = appendInt(b, e.g.Max())
			case kindHistogram:
				h := e.h
				h.mu.Lock()
				b = append(b, `, "count": `...)
				b = appendInt(b, h.n)
				b = append(b, `, "sum": `...)
				b = appendFloat(b, h.sum)
				b = append(b, `, "buckets": [`...)
				for j, c := range h.counts {
					if j > 0 {
						b = append(b, ", "...)
					}
					b = append(b, `{"le": `...)
					if j < len(h.bounds) {
						b = appendFloat(b, h.bounds[j])
					} else {
						b = append(b, `"+Inf"`...)
					}
					b = append(b, `, "count": `...)
					b = appendInt(b, c)
					b = append(b, '}')
				}
				b = append(b, ']')
				h.mu.Unlock()
			}
			b = append(b, '}')
		}
		if len(r.entries) > 0 {
			b = append(b, "\n  "...)
		}
	}
	b = append(b, "]\n}\n"...)
	_, err := w.Write(b)
	return err
}
