// Package power implements an event-based core power model in the style of
// Haj-Yihia et al.'s SkyLake model (the paper's Section 3): average power
// over an interval is static power for the active cluster configuration
// plus per-event dynamic energies. The default weights are calibrated so
// low-power mode consumes ≈35% less power than high-performance mode on
// typical workloads, the paper's figure.
package power

import "clustergate/internal/uarch"

// Model holds static power per configuration and dynamic energy weights per
// event. Units are arbitrary "watts" — only ratios matter for PPW results.
type Model struct {
	// SharedStatic is uncore/front-end static power per cycle, paid in
	// every mode.
	SharedStatic float64
	// ClusterStatic is per-active-cluster static power per cycle; gating
	// Cluster 2 removes one share.
	ClusterStatic float64

	// Dynamic energy per event.
	PerUop       float64
	PerL1DAccess float64
	PerL2Access  float64
	PerMemAccess float64
	PerFPOp      float64
	PerMispred   float64
	PerWrongPath float64
	PerISide     float64
}

// DefaultModel returns the calibrated SkyLake-style weights.
func DefaultModel() *Model {
	return &Model{
		SharedStatic:  0.8,
		ClusterStatic: 2.0,
		PerUop:        0.35,
		PerL1DAccess:  0.15,
		PerL2Access:   0.40,
		PerMemAccess:  1.50,
		PerFPOp:       0.25,
		PerMispred:    2.00,
		PerWrongPath:  0.10,
		PerISide:      0.08,
	}
}

// staticPerCycle returns static power for the given cluster configuration.
func (m *Model) staticPerCycle(mode uarch.Mode) float64 {
	if mode == uarch.ModeLowPower {
		return m.SharedStatic + m.ClusterStatic
	}
	return m.SharedStatic + 2*m.ClusterStatic
}

// Energy returns the total energy consumed over an interval of events
// executed in the given mode. ev is read, not kept; it is passed by
// pointer because a deployment accounts every interval it runs.
func (m *Model) Energy(ev *uarch.Events, mode uarch.Mode) float64 {
	a := ActivityOf(ev)
	return m.ActivityEnergy(&a, mode)
}

// Activity is what the model weighs of one interval's events: its cycles
// and instructions and the event sums behind each dynamic-energy term, in
// whole counts. An interval's activity does not depend on the mode it is
// accounted in or on the model's weights, so a store of intervals takes it
// once per interval and accounts it any number of times.
type Activity struct {
	Cycles, Instrs uint64
	Uops           uint64 // instructions plus register-transfer uops
	L1D            uint64 // L1D hits plus misses
	L2             uint64 // L2 hits plus misses
	Mem            uint64 // L2 misses, each a DRAM access
	FP             uint64
	Mispredicts    uint64
	WrongPath      uint64
	ISide          uint64 // uop-cache and L1I hits plus misses
}

// ActivityOf takes ev's activity.
func ActivityOf(ev *uarch.Events) Activity {
	return Activity{
		Cycles: ev.Cycles, Instrs: ev.Instrs,
		Uops:        ev.Instrs + ev.RegTransferUops,
		L1D:         ev.L1DHits + ev.L1DMisses,
		L2:          ev.L2Hits + ev.L2Misses,
		Mem:         ev.L2Misses,
		FP:          ev.FPOps,
		Mispredicts: ev.Mispredicts,
		WrongPath:   ev.WrongPathUops,
		ISide:       ev.UopCacheHits + ev.UopCacheMisses + ev.L1IHits + ev.L1IMisses,
	}
}

// ActivityEnergy returns the energy of an interval of activity a executed
// in the given mode: Energy of the events a was taken from, bit for bit.
func (m *Model) ActivityEnergy(a *Activity, mode uarch.Mode) float64 {
	e := m.staticPerCycle(mode) * float64(a.Cycles)
	e += m.PerUop * float64(a.Uops)
	e += m.PerL1DAccess * float64(a.L1D)
	e += m.PerL2Access * float64(a.L2)
	e += m.PerMemAccess * float64(a.Mem)
	e += m.PerFPOp * float64(a.FP)
	e += m.PerMispred * float64(a.Mispredicts)
	e += m.PerWrongPath * float64(a.WrongPath)
	e += m.PerISide * float64(a.ISide)
	return e
}

// Power returns average power (energy per cycle) over the interval.
func (m *Model) Power(ev uarch.Events, mode uarch.Mode) float64 {
	if ev.Cycles == 0 {
		return 0
	}
	return m.Energy(&ev, mode) / float64(ev.Cycles)
}

// PPW returns instructions per cycle per watt, the paper's figure of merit.
func (m *Model) PPW(ev uarch.Events, mode uarch.Mode) float64 {
	p := m.Power(ev, mode)
	if p == 0 {
		return 0
	}
	return ev.IPC() / p
}

// Span accumulates energy, cycles, and instructions across interleaved mode
// intervals, for evaluating an adaptive run that switches modes.
type Span struct {
	Energy float64
	Cycles uint64
	Instrs uint64
}

// Add accounts one interval executed in the given mode; ev is read, not
// kept.
func (s *Span) Add(m *Model, ev *uarch.Events, mode uarch.Mode) {
	a := ActivityOf(ev)
	s.AddActivity(m, &a, mode)
}

// AddActivity accounts one interval of activity a executed in the given
// mode, as Add accounts the events a was taken from; a is read, not kept.
func (s *Span) AddActivity(m *Model, a *Activity, mode uarch.Mode) {
	s.Energy += m.ActivityEnergy(a, mode)
	s.Cycles += a.Cycles
	s.Instrs += a.Instrs
}

// IPC returns instructions per cycle over the span.
func (s *Span) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// Power returns average power over the span.
func (s *Span) Power() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return s.Energy / float64(s.Cycles)
}

// PPW returns performance per watt over the span.
func (s *Span) PPW() float64 {
	p := s.Power()
	if p == 0 {
		return 0
	}
	return s.IPC() / p
}
