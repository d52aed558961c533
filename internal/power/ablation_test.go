package power

import (
	"testing"

	"clustergate/internal/uarch"
)

// TestBreakEvenRatio documents the economics of a gating mistake: with
// ~35% power savings, gating a window whose IPC ratio exceeds the
// break-even (~0.65) still improves PPW, while gating truly wide code
// (ratio ~0.5) hurts. The SLA at 0.9 protects *performance*, which is why
// the paper's metric is violation rate, not PPW loss.
func TestBreakEvenRatio(t *testing.T) {
	m := DefaultModel()

	// Construct matched event sets: same instructions, cycles scaled by
	// the inverse IPC ratio.
	mk := func(cycles uint64) uarch.Events {
		return uarch.Events{Cycles: cycles, Instrs: 100_000}
	}
	hi := mk(50_000)

	ppwHigh := m.PPW(hi, uarch.ModeHighPerf)

	// Gated at ratio 0.85 (cycles / 0.85): PPW should improve.
	loGood := mk(58_824) // 50k / 0.85
	if m.PPW(loGood, uarch.ModeLowPower) <= ppwHigh {
		t.Errorf("gating at ratio 0.85 should improve PPW: %v vs %v",
			m.PPW(loGood, uarch.ModeLowPower), ppwHigh)
	}

	// Gated at ratio 0.5: PPW should degrade.
	loBad := mk(100_000)
	if m.PPW(loBad, uarch.ModeLowPower) >= ppwHigh {
		t.Errorf("gating at ratio 0.5 should hurt PPW: %v vs %v",
			m.PPW(loBad, uarch.ModeLowPower), ppwHigh)
	}
}

func TestEnergyAdditivity(t *testing.T) {
	m := DefaultModel()
	a := uarch.Events{Cycles: 1000, Instrs: 2000, L1DHits: 500, FPOps: 100}
	b := uarch.Events{Cycles: 3000, Instrs: 1000, L2Misses: 50, Mispredicts: 10}
	sum := uarch.Events{
		Cycles: 4000, Instrs: 3000, L1DHits: 500, FPOps: 100,
		L2Misses: 50, Mispredicts: 10,
	}
	ea := m.Energy(&a, uarch.ModeHighPerf)
	eb := m.Energy(&b, uarch.ModeHighPerf)
	es := m.Energy(&sum, uarch.ModeHighPerf)
	if diff := es - (ea + eb); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("energy not additive: %v + %v != %v", ea, eb, es)
	}
}
