package obs

import "sort"

// traceEvent is one Chrome trace-event record (the "X" complete-event
// form, plus "M" metadata records), as consumed by Perfetto and
// chrome://tracing.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope of the Chrome trace-event
// format.
type chromeTrace struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// flatSpan is one manifest span flattened for lane assignment; times are
// microseconds relative to run start.
type flatSpan struct {
	name     string
	ts, dur  float64
	depth    int
	birth    int // flattening order, stabilises the lane sort
	children int
}

// chromeEvents renders the manifest's span tree in Chrome trace-event
// form, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
// Spans become "X" complete events; tracks ("tid"s) are assigned
// greedily so overlapping spans — a parent and its children, or
// concurrent worker leaves — land on separate rows while sequential
// phases share one, which reads like a flame graph of the run.
func (m *Manifest) chromeEvents() *chromeTrace {
	var flat []flatSpan
	var walk func(spans []*SpanRecord, depth int)
	walk = func(spans []*SpanRecord, depth int) {
		for _, s := range spans {
			flat = append(flat, flatSpan{
				name:  s.Name,
				ts:    s.StartMS * 1e3,
				dur:   s.WallMS * 1e3,
				depth: depth,
				birth: len(flat),
			})
			walk(s.Children, depth+1)
		}
	}
	walk(m.Spans, 1)

	// Greedy lane assignment: spans sorted by start (longest first on
	// ties, so parents claim their lane before their children) each take
	// the lowest-numbered lane that is free at their start time.
	order := make([]int, len(flat))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := &flat[order[a]], &flat[order[b]]
		if sa.ts != sb.ts {
			return sa.ts < sb.ts
		}
		if sa.dur != sb.dur {
			return sa.dur > sb.dur
		}
		return sa.birth < sb.birth
	})
	laneEnd := []float64{}
	lanes := make([]int, len(flat))
	for _, i := range order {
		s := &flat[i]
		lane := -1
		for l, end := range laneEnd {
			if end <= s.ts {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, 0)
		}
		laneEnd[lane] = s.ts + s.dur
		lanes[i] = lane
	}

	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": m.Tool},
	}}}
	for i, s := range flat {
		tr.TraceEvents = append(tr.TraceEvents, traceEvent{
			Name: s.name, Ph: "X",
			Ts: s.ts, Dur: s.dur,
			Pid: 1, Tid: lanes[i] + 1,
		})
	}
	return &tr
}

// WriteChromeTrace writes the manifest's span tree as a Chrome
// trace-event JSON file (see chromeEvents for the format).
func (m *Manifest) WriteChromeTrace(path string) error {
	return WriteJSON(path, m.chromeEvents())
}
