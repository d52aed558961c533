package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"
)

// DefaultFlightCap is the ring capacity a Flight gets when the caller
// passes zero: enough sim-time history to reconstruct the run-up to any
// incident without holding whole deployments in memory.
const DefaultFlightCap = 64

// FlightSample is one sim-time sample in a deployment's flight recorder.
// T is the global interval index; the other fields are omitted when zero.
type FlightSample struct {
	T         int64   `json:"t"`
	IPC       float64 `json:"ipc,omitempty"`
	Power     float64 `json:"power,omitempty"`
	MemDerate float64 `json:"mem_derate,omitempty"`
	Gated     int     `json:"gated,omitempty"`
	Backoff   int     `json:"backoff,omitempty"`
	Trips     int     `json:"trips,omitempty"`
}

// Flight is a sim-time flight recorder: a bounded ring buffer of
// per-interval samples attached to one deployment. Recording overwrites
// the oldest sample once the ring is full, so the last N intervals before
// any incident are always reconstructable; DumpIncident freezes the ring
// into the active event log at the moment something goes wrong (a
// guardrail trip). Samples carry only
// simulation-derived values, so a flight recorder's contents — like the
// event log's — are deterministic at any worker count. A nil Flight
// no-ops on every method.
type Flight struct {
	scope string
	mu    sync.Mutex
	buf   []FlightSample
	next  int
	total int64
}

// NewFlight returns a flight recorder for the named scope holding the
// last capacity samples (capacity <= 0 selects DefaultFlightCap).
func NewFlight(scope string, capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCap
	}
	return &Flight{scope: scope, buf: make([]FlightSample, 0, capacity)}
}

// Record appends one sample, evicting the oldest once the ring is full.
func (f *Flight) Record(s FlightSample) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, s)
	} else {
		f.buf[f.next] = s
		f.next = (f.next + 1) % cap(f.buf)
	}
	f.total++
	f.mu.Unlock()
}

// Total returns how many samples were ever recorded (recorded minus
// evicted is what Samples returns).
func (f *Flight) Total() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Samples returns the retained samples oldest-first.
func (f *Flight) Samples() []FlightSample {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightSample, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// WriteJSONL dumps the retained samples oldest-first, one JSON object
// per line — the on-demand dump path.
func (f *Flight) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range f.Samples() {
		if err := enc.Encode(&s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile dumps the retained samples as JSONL to path.
func (f *Flight) WriteFile(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteJSONL(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// DumpIncident freezes the ring's current contents into the active event
// log as one event of the given kind, tagged with the recorder's scope
// and the newest sample's T. The attrs map (may be nil) is extended with
// a "samples" key; it is retained, so callers must not mutate it. A
// no-op when no event log is installed.
func (f *Flight) DumpIncident(kind string, attrs map[string]any) {
	if f == nil || !EventsActive() {
		return
	}
	samples := f.Samples()
	var t int64
	if n := len(samples); n > 0 {
		t = samples[n-1].T
	}
	if attrs == nil {
		attrs = map[string]any{}
	}
	attrs["samples"] = samples
	Emit(f.scope, t, kind, attrs)
}
