package surrogate

import (
	"math"
	"sync"

	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/uarch"
)

// Residual-table observability: residual-model evaluations, one per
// distinct key a model has scored, and lookups the tables answered
// without one. Both are independent of the worker count.
var (
	residualEvals = obs.NewCounter("surrogate.residual.evals")
	residualHits  = obs.NewCounter("surrogate.residual.hits")
)

// residualKey identifies one replayed interval's residual within a
// recording. The residual is a pure function of the Features vector,
// which reads the mode's and the other mode's recorded interval (fixed by
// the interval index and whether the mode is low-power), the DRAM derate
// and the since-switch count capped at sinceSwitchCap, so the key holds
// exactly those. The derate is kept as its bits: equal bits are the same
// float64, and a NaN, which equals nothing, still finds its own entry.
type residualKey struct {
	interval int32
	lowPower bool
	since    uint8
	derate   uint64
}

// residualTable memoises the residuals every deployment of one recording
// has needed, so each key runs Features and the backend once per model.
// It is exact only because the model and the recording are immutable once
// built: nothing may retrain a Model's backend or edit a TraceTelemetry
// after its first deployment.
type residualTable struct {
	mu sync.Mutex
	r  map[residualKey]float64
}

// residuals returns ref's residual table, creating it on first use; nil
// for a model with no backend, whose residual is always 0.
func (m *Model) residuals(ref *dataset.TraceTelemetry) *residualTable {
	if m == nil || (m.Forest == nil && m.Ridge == nil) {
		return nil
	}
	m.tablesMu.Lock()
	defer m.tablesMu.Unlock()
	t := m.tables[ref]
	if t == nil {
		if m.tables == nil {
			m.tables = map[*dataset.TraceTelemetry]*residualTable{}
		}
		t = &residualTable{r: map[residualKey]float64{}}
		m.tables[ref] = t
	}
	return t
}

// residual returns the clamped residual of interval gidx of ref replayed
// in mode under derate, sinceSwitch intervals after the last mode switch;
// a nil table evaluates it. A hit allocates nothing, and a miss evaluates
// the model under the table's lock, so each key is evaluated exactly once.
func (t *residualTable) residual(m *Model, ref *dataset.TraceTelemetry, gidx int, mode uarch.Mode, derate float64, sinceSwitch int) float64 {
	if t == nil {
		return m.Residual(intervalFeatures(ref, gidx, mode, derate, sinceSwitch))
	}
	k := residualKey{interval: int32(gidx), lowPower: mode == uarch.ModeLowPower,
		since: uint8(min(sinceSwitch, sinceSwitchCap)), derate: math.Float64bits(derate)}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.r[k]
	if ok {
		residualHits.Inc()
		return r
	}
	r = m.Residual(intervalFeatures(ref, gidx, mode, derate, sinceSwitch))
	t.r[k] = r
	residualEvals.Inc()
	return r
}
