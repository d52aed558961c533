package obs

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Span is a named wall-clock timer in a Run's hierarchy. Spans started
// with Start nest: the newest unfinished Start-span is the parent of the
// next one. Spans started with StartLeaf attach to the current parent but
// never become current themselves, which makes them safe to open and
// close from concurrent worker goroutines.
//
// A nil Span (from Start when no run is active) no-ops on every method.
type Span struct {
	run      *Run
	parent   *Span
	name     string
	start    time.Time
	end      time.Time
	children []*Span
}

// End stops the span's clock. Ending a span that is not the innermost
// open one is allowed (concurrent leaves end in any order); the nesting
// pointer only unwinds when the innermost span ends.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.run
	r.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	if r.cur == s {
		r.cur = s.parent
	}
	r.mu.Unlock()
}

// Info is the caller-supplied identity of a run; the rest of the manifest
// metadata (GOMAXPROCS, go version, timing, counters) is captured by the
// Run itself.
type Info struct {
	Tool    string
	Args    []string
	Seed    int64
	Scale   string
	Workers int
}

// Run collects one process invocation's spans and counter deltas and
// renders them as a Manifest. A nil Run no-ops, so library code can
// instrument unconditionally.
type Run struct {
	mu    sync.Mutex
	info  Info
	start time.Time
	end   time.Time
	roots []*Span
	cur   *Span
	base  map[string]int64      // counter snapshot at run start
	hbase map[string]histCounts // histogram snapshot at run start
}

// NewRun starts a run: records its start time and baselines the counter
// and histogram registries so the manifest reports deltas attributable
// to this run.
func NewRun(info Info) *Run {
	return &Run{info: info, start: time.Now(), base: Snapshot(), hbase: histSnapshots()}
}

// Start opens a nested span: its parent is the newest unfinished span
// opened with Start, and it becomes the parent of subsequent spans until
// it ends. Use it for the sequential phases of a run (one span per
// experiment, per pipeline stage); use StartLeaf from worker goroutines.
func (r *Run) Start(name string) *Span { return r.newSpan(name, false) }

// StartLeaf opens a span under the current parent without becoming
// current. Concurrent workers can open and close leaves in any order
// without perturbing the nesting of the sequential spans around them.
func (r *Run) StartLeaf(name string) *Span { return r.newSpan(name, true) }

func (r *Run) newSpan(name string, leaf bool) *Span {
	if r == nil {
		return nil
	}
	s := &Span{run: r, name: name, start: time.Now()}
	r.mu.Lock()
	s.parent = r.cur
	if s.parent != nil {
		s.parent.children = append(s.parent.children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	if !leaf {
		r.cur = s
	}
	r.mu.Unlock()
	return s
}

// Finish stops the run clock, closes any spans left open, and renders the
// Manifest. Counter values are reported as deltas since NewRun.
func (r *Run) Finish() *Manifest {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if r.end.IsZero() {
		r.end = time.Now()
	}
	end := r.end
	m := &Manifest{
		Tool:        r.info.Tool,
		Args:        r.info.Args,
		Seed:        r.info.Seed,
		Scale:       r.info.Scale,
		Workers:     r.info.Workers,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Start:       r.start,
		End:         end,
		WallSeconds: end.Sub(r.start).Seconds(),
		PeakRSSMB:   peakRSSMB(),
	}
	for _, s := range r.roots {
		m.Spans = append(m.Spans, s.record(r.start, end))
	}
	r.mu.Unlock()

	// Counter and histogram maps are rendered through encoding/json,
	// which sorts map keys, so manifests are byte-stable for identical
	// values regardless of registry iteration order (locked by
	// TestManifestBytesStable).
	m.Counters = map[string]int64{}
	for name, v := range Snapshot() {
		if d := v - r.base[name]; d != 0 {
			m.Counters[name] = d
		}
	}
	m.Histograms = map[string]HistogramSnapshot{}
	for name, hc := range histSnapshots() {
		if d := hc.sub(r.hbase[name]); d.count > 0 {
			m.Histograms[name] = d.snapshot()
		}
	}
	return m
}

// record converts a span subtree to its manifest form; open spans are
// clamped to the run end. Caller holds the run lock.
func (s *Span) record(runStart, runEnd time.Time) *SpanRecord {
	end := s.end
	if end.IsZero() {
		end = runEnd
	}
	rec := &SpanRecord{
		Name:    s.name,
		StartMS: float64(s.start.Sub(runStart).Microseconds()) / 1e3,
		WallMS:  float64(end.Sub(s.start).Microseconds()) / 1e3,
	}
	for _, c := range s.children {
		rec.Children = append(rec.Children, c.record(runStart, runEnd))
	}
	return rec
}

// Manifest is the JSON run manifest: what a run was (tool, seed, scale,
// workers, host parallelism, toolchain) and what it did (per-phase spans,
// counter deltas, wall clock). See README "Observability" for the schema.
type Manifest struct {
	Tool        string    `json:"tool"`
	Args        []string  `json:"args,omitempty"`
	Seed        int64     `json:"seed" gate:"signed"`
	Scale       string    `json:"scale,omitempty"`
	Workers     int       `json:"workers" gate:"signed"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	WallSeconds float64   `json:"wall_seconds" gate:"lower,warn"`
	// PeakRSSMB is the process's peak resident set size, in MiB, when the
	// manifest was rendered (getrusage ru_maxrss): whole-process memory,
	// including everything before the run started. Omitted where getrusage
	// is unavailable or fails.
	PeakRSSMB float64       `json:"peak_rss_mb,omitempty"`
	Spans     []*SpanRecord `json:"spans,omitempty"`
	// Counters are the run's counter deltas, keyed by instrument name.
	Counters map[string]int64 `json:"counters,omitempty" gate:"count,skip"`
	// Histograms are the run's latency-histogram deltas (samples observed
	// during this run only), keyed by instrument name.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty" gate:"skip"`
}

// SpanRecord is one span in the manifest; times are milliseconds relative
// to the run start.
type SpanRecord struct {
	Name     string        `json:"name"`
	StartMS  float64       `json:"start_ms"`
	WallMS   float64       `json:"wall_ms"`
	Children []*SpanRecord `json:"children,omitempty"`
}

// WriteFile writes the manifest as indented JSON.
func (m *Manifest) WriteFile(path string) error {
	return WriteJSON(path, m)
}

// current is the process's active run; Start/StartLeaf route through it.
var current atomic.Pointer[Run]

// SetCurrent installs (or, with nil, clears) the process's active run.
func SetCurrent(r *Run) { current.Store(r) }

// Current returns the active run, or nil when none is installed.
func Current() *Run { return current.Load() }

// Start opens a nested span on the active run; returns nil (a no-op
// span) when no run is active.
func Start(name string) *Span { return Current().Start(name) }

// StartLeaf opens a leaf span on the active run; see Run.StartLeaf.
func StartLeaf(name string) *Span { return Current().StartLeaf(name) }

// WriteJSON writes v to path as two-space-indented JSON and a newline,
// the form of every artifact a run writes.
func WriteJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
