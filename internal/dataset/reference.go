package dataset

import (
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/uarch"
)

// HighPerfSpan returns the power span of the first n ≥ 0 intervals of the
// always-high-performance recording under pm, or of all of them when n
// exceeds the recording: the reference a closed-loop deployment of n
// intervals is measured against. The recording's prefix spans are summed
// once per power-model value, from a zero span in interval order, so every
// prefix is bit-identical to adding its intervals one at a time; they are
// keyed by the model's coefficients, so a model changed after its first use
// gets its own. Safe for concurrent use.
func (tt *TraceTelemetry) HighPerfSpan(pm *power.Model, n int) power.Span {
	memo := &tt.highPerfSpans
	memo.mu.Lock()
	defer memo.mu.Unlock()
	spans, ok := memo.byModel[*pm]
	if !ok {
		spans = make([]power.Span, len(tt.HighPerf)+1)
		var ev uarch.Events
		for i, rec := range tt.HighPerf {
			telemetry.BaseToEvents(rec.Base, &ev)
			spans[i+1] = spans[i]
			spans[i+1].Add(pm, &ev, uarch.ModeHighPerf)
		}
		// A NaN coefficient makes the model unequal to itself, so its
		// spans could never be found again: they are not kept.
		if *pm == *pm {
			if memo.byModel == nil {
				memo.byModel = map[power.Model][]power.Span{}
			}
			memo.byModel[*pm] = spans
		}
	}
	return spans[min(n, len(tt.HighPerf))]
}
