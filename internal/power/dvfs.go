package power

import (
	"fmt"

	"clustergate/internal/uarch"
)

// The paper positions cluster gating as complementary to DVFS: once the
// voltage floor (V_min) is reached, frequency scaling stops saving energy
// proportionally, while gating keeps removing switched capacitance and
// leakage. This file models that interaction: an operating-point table of
// (frequency, voltage) pairs with dynamic power ∝ f·V² and static power ∝
// V, composed with the event-based core model.

// OperatingPoint is one DVFS state.
type OperatingPoint struct {
	Name string
	// FreqGHz is the clock; it scales how cycles convert to wall time.
	FreqGHz float64
	// Voltage is relative to nominal (1.0).
	Voltage float64
}

// DVFSCurve is an ordered table of operating points, fastest first.
type DVFSCurve []OperatingPoint

// DefaultDVFSCurve returns a SkyLake-flavoured table ending at V_min:
// below the last point, voltage cannot drop further, so frequency scaling
// saves only linearly (no V² term) — the regime where the paper argues
// gating keeps paying.
func DefaultDVFSCurve() DVFSCurve {
	return DVFSCurve{
		{Name: "turbo", FreqGHz: 2.6, Voltage: 1.10},
		{Name: "nominal", FreqGHz: 2.0, Voltage: 1.00},
		{Name: "efficient", FreqGHz: 1.5, Voltage: 0.88},
		{Name: "vmin", FreqGHz: 1.0, Voltage: 0.80}, // voltage floor
		{Name: "below-vmin", FreqGHz: 0.7, Voltage: 0.80},
	}
}

// leakageFrac is the share of the configuration-static power that is true
// leakage (integrates over wall time, ∝ V); the rest is clock-tree and
// always-switching dynamic power (∝ V² per cycle).
const leakageFrac = 0.25

// EnergyAt returns the energy of an interval executed at the operating
// point in the given cluster mode. Event-dynamic and clock-tree energy
// scale with V² per cycle; leakage scales with V × wall time (cycles/f),
// normalised so the nominal 2 GHz point reproduces the base model.
func (m *Model) EnergyAt(ev uarch.Events, mode uarch.Mode, op OperatingPoint) float64 {
	v2 := op.Voltage * op.Voltage
	staticTotal := m.staticPerCycle(mode) * float64(ev.Cycles)
	dynamic := (m.Energy(&ev, mode) - staticTotal) * v2
	clockTree := staticTotal * (1 - leakageFrac) * v2
	leakage := staticTotal * leakageFrac * op.Voltage * (2.0 / op.FreqGHz)
	return dynamic + clockTree + leakage
}

// PerfAt returns instructions per second (in billions) at the point.
func PerfAt(ev uarch.Events, op OperatingPoint) float64 {
	if ev.Cycles == 0 {
		return 0
	}
	return float64(ev.Instrs) / float64(ev.Cycles) * op.FreqGHz
}

// PPWAt returns performance per watt at the operating point: instructions
// per second over watts (energy per wall second).
func (m *Model) PPWAt(ev uarch.Events, mode uarch.Mode, op OperatingPoint) float64 {
	if ev.Cycles == 0 {
		return 0
	}
	seconds := float64(ev.Cycles) / (op.FreqGHz * 1e9)
	watts := m.EnergyAt(ev, mode, op) / seconds
	if watts == 0 {
		return 0
	}
	return PerfAt(ev, op) * 1e9 / watts
}

// GatingGainAt returns the PPW improvement from gating at a fixed
// operating point, given matched high/low mode event sets for the same
// work. The paper's claim: this stays positive even at and below V_min,
// where DVFS itself has stopped paying quadratically.
func (m *Model) GatingGainAt(hi, lo uarch.Events, op OperatingPoint) (float64, error) {
	if hi.Instrs != lo.Instrs {
		return 0, fmt.Errorf("power: mismatched work: %d vs %d instructions", hi.Instrs, lo.Instrs)
	}
	base := m.PPWAt(hi, uarch.ModeHighPerf, op)
	if base == 0 {
		return 0, fmt.Errorf("power: zero baseline PPW")
	}
	return m.PPWAt(lo, uarch.ModeLowPower, op)/base - 1, nil
}
