package surrogate

import (
	"math"
	"sync"

	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/telemetry"
	"clustergate/internal/uarch"
)

// Residual-table observability: residual-model evaluations, one per
// distinct key a model has scored, and lookups the tables answered
// without one. Both are independent of the worker count.
var (
	residualEvals = obs.NewCounter("surrogate.residual.evals")
	residualHits  = obs.NewCounter("surrogate.residual.hits")
)

// residualKey identifies one replayed interval within a recording. The
// finished estimate is a pure function of the Features vector and of
// Splice's inputs. Features reads the mode's and the other mode's recorded
// interval (fixed by the interval index and whether the mode is
// low-power), the DRAM derate and the since-switch count capped at
// sinceSwitchCap; Splice reads the same interval and derate, whether the
// since-switch count is 0, and the core, which a table is tied to. So the
// key holds exactly those. The derate is kept as its bits: equal bits are
// the same float64, and a NaN, which equals nothing, still finds its own
// entry.
type residualKey struct {
	interval int32
	lowPower bool
	since    uint8
	derate   uint64
}

// residualTable memoises the finished intervals every deployment of one
// recording has needed: each key is spliced, scored by the backend,
// cycle-bounded and checked for plausibility once per model, and every
// later lookup returns the stored vector, which deployments share and only
// read, with its verdict. It is exact only because the model and the
// recording are immutable once built: nothing may retrain a Model's
// backend or edit a TraceTelemetry after its first deployment.
type residualTable struct {
	mu sync.Mutex
	// core is the core the stored vectors were spliced for, set by the
	// first deployment that consults the table (tied); a deployment on
	// another core computes its intervals directly.
	core uarch.Config
	tied bool
	v    map[residualKey]storedInterval
}

// storedInterval is one finished interval and whether it passed
// telemetry.ImplausibleVector.
type storedInterval struct {
	base      []float64
	plausible bool
}

// residuals returns ref's table, creating it on first use; nil for a model
// with no backend, whose intervals are the bare splice.
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
		t = &residualTable{v: map[residualKey]storedInterval{}}
		m.tables[ref] = t
	}
	return t
}

// serves reports whether the table holds vectors spliced for core, tying
// a table no deployment has consulted yet to it.
func (t *residualTable) serves(core *uarch.Config) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.tied {
		t.core, t.tied = *core, true
	}
	return t.core == *core
}

// interval returns src's finished interval gidx, replayed in mode under
// derate sinceSwitch intervals after the last mode switch, and its
// plausibility verdict: the stored vector on a hit, which allocates
// nothing. A miss computes both under the table's lock, so each key is
// evaluated exactly once.
func (t *residualTable) interval(src *traceModel, gidx int, mode uarch.Mode, derate float64, sinceSwitch int) storedInterval {
	k := residualKey{interval: int32(gidx), lowPower: mode == uarch.ModeLowPower,
		since: uint8(min(sinceSwitch, sinceSwitchCap)), derate: math.Float64bits(derate)}
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.v[k]; ok {
		residualHits.Inc()
		return v
	}
	base := src.estimate(gidx, mode, derate, sinceSwitch)
	v := storedInterval{base: base, plausible: telemetry.ImplausibleVector(base) == ""}
	t.v[k] = v
	residualEvals.Inc()
	return v
}
