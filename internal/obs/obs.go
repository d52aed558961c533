// Package obs is the repo's observability subsystem: atomic counters and
// gauges for hot-path event counts, lock-free fixed-bucket latency
// histograms with percentile snapshots, hierarchical spans for
// wall-clock timing (exportable as Chrome trace-event JSON for
// Perfetto), a structured sim-time event log rendered as
// deterministically ordered JSONL, bounded flight recorders that keep
// the last N sim-time samples before any incident, an optional debug
// HTTP endpoint (/metrics, /healthz, net/pprof), and a Run object that
// snapshots everything — plus run metadata (seed, scale, workers,
// GOMAXPROCS, go version, start/end time) — into a machine-readable JSON
// run manifest.
//
// Two contracts shape the design:
//
//   - Cheap when disabled. Counters and gauges are plain atomic adds held
//     in package-level vars; every Span/Run method is nil-safe, so code
//     instrumented with `defer obs.Start("x").End()` costs one atomic
//     pointer load and a nil check when no run is active — no allocation,
//     no lock.
//
//   - Invisible to results. Instrumentation only *observes*: it never
//     writes to experiment output streams, never draws from shared RNG
//     state, and never changes scheduling, so instrumented and
//     uninstrumented runs produce byte-identical experiment output at any
//     worker count (locked by tests in internal/experiments).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing, concurrency-safe event count.
// All methods are nil-safe so holders never branch on enablement.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Name returns the counter's registry name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge tracks an instantaneous level and its high-water mark (e.g. tasks
// currently in flight on a worker pool and the peak ever observed).
type Gauge struct {
	name string
	cur  atomic.Int64
	peak atomic.Int64
}

// Inc raises the level by one and updates the peak.
func (g *Gauge) Inc() { g.Add(1) }

// Dec lowers the level by one.
func (g *Gauge) Dec() {
	if g != nil {
		g.cur.Add(-1)
	}
}

// Add moves the level by n (negative lowers it) and updates the peak.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	v := g.cur.Add(n)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// Peak returns the highest level ever observed.
func (g *Gauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// registry is the process-wide name → instrument table. Registration
// happens once per package var at init; hot paths touch only the atomics
// inside the returned pointers.
var registry = struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}{
	counters: map[string]*Counter{},
	gauges:   map[string]*Gauge{},
	hists:    map[string]*Histogram{},
}

// NewCounter returns the process-wide counter with the given name,
// creating it on first use. Keep the pointer in a package var: lookups
// take a lock, Add does not.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name}
	registry.counters[name] = c
	return c
}

// NewGauge returns the process-wide gauge with the given name, creating
// it on first use.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	registry.gauges[name] = g
	return g
}

// CounterValue reads a counter by name; unknown names read as zero.
func CounterValue(name string) int64 {
	registry.mu.Lock()
	c := registry.counters[name]
	registry.mu.Unlock()
	return c.Value()
}

// Snapshot returns the current value of every registered counter, plus
// every gauge's high-water mark under "<name>.peak". The map is freshly
// allocated and safe to mutate.
func Snapshot() map[string]int64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]int64, len(registry.counters)+len(registry.gauges))
	for name, c := range registry.counters {
		out[name] = c.v.Load()
	}
	for name, g := range registry.gauges {
		out[name+".peak"] = g.peak.Load()
	}
	return out
}

// Names returns the sorted names of all registered instruments (gauges
// with their ".peak" suffix), mainly for reports and tests.
func Names() []string {
	snap := Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
