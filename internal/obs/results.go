package obs

import "sync"

// Result is one machine-readable experiment outcome: its name, wall-clock
// seconds, and a flat map of named metrics (PGOS, RSV, PPW gain, …).
// Flat float maps keep the schema uniform across experiments so trend
// tooling can diff runs without per-experiment parsers.
type Result struct {
	Name    string             `json:"name" gate:"id"`
	Seconds float64            `json:"seconds" gate:"lower,warn"`
	Metrics map[string]float64 `json:"metrics,omitempty" gate:"metric"`
}

// ResultsFile is the on-disk form of a results collection.
type ResultsFile struct {
	Tool    string   `json:"tool"`
	Results []Result `json:"results"`
}

// Results accumulates per-experiment results; a nil Results no-ops so
// callers can collect unconditionally and decide later whether to write.
type Results struct {
	mu      sync.Mutex
	tool    string
	entries []Result
}

// NewResults returns an empty collector for the named tool.
func NewResults(tool string) *Results { return &Results{tool: tool} }

// Add appends one experiment's outcome. Metrics may be nil.
func (rs *Results) Add(name string, seconds float64, metrics map[string]float64) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.entries = append(rs.entries, Result{Name: name, Seconds: seconds, Metrics: metrics})
	rs.mu.Unlock()
}

// Snapshot returns a copy of the collected results in insertion order.
func (rs *Results) Snapshot() ResultsFile {
	if rs == nil {
		return ResultsFile{}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := ResultsFile{Tool: rs.tool, Results: make([]Result, len(rs.entries))}
	copy(out.Results, rs.entries)
	return out
}

// WriteFile writes the collected results as indented JSON.
func (rs *Results) WriteFile(path string) error {
	snap := rs.Snapshot()
	return WriteJSON(path, &snap)
}
