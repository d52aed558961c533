package surrogate

import (
	"math"
	"sync"
	"sync/atomic"

	"clustergate/internal/core"
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

// A replayed interval's finished estimate is a pure function of the
// Features vector and of Splice's inputs. Features reads the mode's and
// the other mode's recorded interval (fixed by the interval index and
// whether the mode is low-power), the DRAM derate and the since-switch
// count capped at sinceSwitchCap; Splice reads the same interval and
// derate, whether the since-switch count is 0, and the core, which a table
// is tied to. So a table keys its intervals by exactly those: a slot per
// (interval, low-power, capped since-switch), holding a list of the
// derates its deployments have run that slot under. A derate is kept as
// its bits: equal bits are the same float64, and a NaN, which equals
// nothing, still finds its own entry.

// residualTable memoises the finished intervals every deployment of one
// recording has needed: each key is spliced, scored by the backend,
// cycle-bounded and stored with its plausibility verdict and power
// activity once per model, and every later lookup returns the stored
// interval, which deployments share and only read. It is exact only
// because the model and the recording are immutable once built: nothing
// may retrain a Model's backend or edit a TraceTelemetry after its first
// deployment.
//
// A lookup indexes its slot and scans the slot's list without the lock. A
// list is never changed once published: a miss evaluates the key under
// the lock, so each key is evaluated exactly once, and replaces the
// slot's list with a longer copy.
type residualTable struct {
	mu sync.Mutex
	// core is the core the stored vectors were spliced for, set by the
	// first deployment that consults the table (tied); a deployment on
	// another core computes its intervals directly.
	core uarch.Config
	tied bool
	// slots holds one list per (interval, low-power, since-switch), see
	// slot.
	slots []atomic.Pointer[[]residualEntry]
}

// residualEntry is one stored interval of a slot, under one derate.
type residualEntry struct {
	derate uint64
	iv     *core.StoredInterval
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
		t = &residualTable{slots: make([]atomic.Pointer[[]residualEntry], ref.Intervals()*2*(sinceSwitchCap+1))}
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

// slot returns the list of interval gidx replayed in mode sinceSwitch
// intervals after the last mode switch.
func (t *residualTable) slot(gidx int, mode uarch.Mode, sinceSwitch int) *atomic.Pointer[[]residualEntry] {
	i := 2 * gidx
	if mode == uarch.ModeLowPower {
		i++
	}
	return &t.slots[i*(sinceSwitchCap+1)+min(sinceSwitch, sinceSwitchCap)]
}

// entryFor returns the list's interval under derate bits, or nil.
func entryFor(list *[]residualEntry, derate uint64) *core.StoredInterval {
	if list == nil {
		return nil
	}
	for _, e := range *list {
		if e.derate == derate {
			return e.iv
		}
	}
	return nil
}

// interval returns src's finished interval gidx, replayed in mode under
// derate sinceSwitch intervals after the last mode switch, and whether the
// table already stored it: the stored interval on a hit, which allocates
// nothing and takes no lock. A miss computes it under the table's lock, so
// each key is evaluated exactly once.
func (t *residualTable) interval(src *traceModel, gidx int, mode uarch.Mode, derate float64, sinceSwitch int) (iv *core.StoredInterval, hit bool) {
	slot, bits := t.slot(gidx, mode, sinceSwitch), math.Float64bits(derate)
	if iv := entryFor(slot.Load(), bits); iv != nil {
		return iv, true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	old := slot.Load()
	if iv := entryFor(old, bits); iv != nil {
		return iv, true
	}
	stored := core.NewStoredInterval(src.estimate(gidx, mode, derate, sinceSwitch))
	var list []residualEntry
	if old != nil {
		list = append(make([]residualEntry, 0, len(*old)+1), *old...)
	}
	list = append(list, residualEntry{derate: bits, iv: &stored})
	slot.Store(&list)
	residualEvals.Inc()
	return &stored, false
}
