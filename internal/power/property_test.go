package power

import (
	"math"
	"testing"
	"testing/quick"

	"clustergate/internal/uarch"
)

// randomEvents maps quick-generated raw values onto a self-consistent
// event set: counts are bounded by plausible per-cycle rates so the vector
// could have come from a real simulation interval.
func randomEvents(raw [8]uint32) uarch.Events {
	cycles := 1 + uint64(raw[0])%1_000_000
	bound := func(v uint32, perCycle uint64) uint64 {
		return uint64(v) % (cycles*perCycle + 1)
	}
	return uarch.Events{
		Cycles:      cycles,
		Instrs:      bound(raw[1], 8),
		L1DHits:     bound(raw[2], 3),
		L2Hits:      bound(raw[3], 1),
		L2Misses:    bound(raw[4], 1),
		FPOps:       bound(raw[5], 4),
		Mispredicts: bound(raw[6], 1),
		L1IHits:     bound(raw[7], 2),
	}
}

// TestEnergyPositiveAndModeOrderedProperty: energy is positive for any
// interval, and low-power mode — which differs only by one cluster's
// static share — never costs more than high-perf mode for identical
// events.
func TestEnergyPositiveAndModeOrderedProperty(t *testing.T) {
	m := DefaultModel()
	f := func(raw [8]uint32) bool {
		ev := randomEvents(raw)
		hi := m.Energy(&ev, uarch.ModeHighPerf)
		lo := m.Energy(&ev, uarch.ModeLowPower)
		if hi <= 0 || lo <= 0 {
			t.Logf("non-positive energy: hi=%v lo=%v", hi, lo)
			return false
		}
		if lo > hi {
			t.Logf("low-power mode costlier than high-perf: %v > %v", lo, hi)
			return false
		}
		want := float64(ev.Cycles) * m.ClusterStatic
		if math.Abs((hi-lo)-want) > 1e-6*want+1e-9 {
			t.Logf("mode delta %v != one cluster's static %v", hi-lo, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEnergyMonotoneInEventsProperty: adding events to an interval must
// never reduce its energy — all per-event weights are non-negative.
func TestEnergyMonotoneInEventsProperty(t *testing.T) {
	m := DefaultModel()
	f := func(raw [8]uint32, extra uint16) bool {
		ev := randomEvents(raw)
		base := m.Energy(&ev, uarch.ModeHighPerf)
		grown := ev
		grown.L2Misses += uint64(extra)
		grown.FPOps += uint64(extra)
		grown.Instrs += uint64(extra)
		return m.Energy(&grown, uarch.ModeHighPerf) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEnergyAtNominalMatchesBaseModelProperty: the DVFS extension must
// reduce exactly to the base model at the nominal operating point
// (2 GHz, 1.0 V) — the point the base weights were calibrated at.
func TestEnergyAtNominalMatchesBaseModelProperty(t *testing.T) {
	m := DefaultModel()
	nominal := OperatingPoint{Name: "nominal", FreqGHz: 2.0, Voltage: 1.0}
	f := func(raw [8]uint32, low bool) bool {
		ev := randomEvents(raw)
		mode := uarch.ModeHighPerf
		if low {
			mode = uarch.ModeLowPower
		}
		base := m.Energy(&ev, mode)
		dvfs := m.EnergyAt(ev, mode, nominal)
		return math.Abs(base-dvfs) <= 1e-9*base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSpanAccumulationMatchesSingleInterval: accumulating an interval into
// a Span in pieces must give the same power and IPC as one big interval —
// the evaluator relies on spans being exactly additive.
func TestSpanAccumulationMatchesSingleInterval(t *testing.T) {
	m := DefaultModel()
	f := func(raw [8]uint32) bool {
		ev := randomEvents(raw)
		var whole, parts Span
		whole.Add(m, &ev, uarch.ModeHighPerf)

		half := ev
		half.Cycles /= 2
		half.Instrs /= 2
		half.L1DHits /= 2
		half.L2Hits /= 2
		half.L2Misses /= 2
		half.FPOps /= 2
		half.Mispredicts /= 2
		half.L1IHits /= 2
		rest := uarch.Events{
			Cycles:      ev.Cycles - half.Cycles,
			Instrs:      ev.Instrs - half.Instrs,
			L1DHits:     ev.L1DHits - half.L1DHits,
			L2Hits:      ev.L2Hits - half.L2Hits,
			L2Misses:    ev.L2Misses - half.L2Misses,
			FPOps:       ev.FPOps - half.FPOps,
			Mispredicts: ev.Mispredicts - half.Mispredicts,
			L1IHits:     ev.L1IHits - half.L1IHits,
		}
		parts.Add(m, &half, uarch.ModeHighPerf)
		parts.Add(m, &rest, uarch.ModeHighPerf)

		if math.Abs(whole.IPC()-parts.IPC()) > 1e-9 {
			t.Logf("IPC %v != %v", whole.IPC(), parts.IPC())
			return false
		}
		if math.Abs(whole.Power()-parts.Power()) > 1e-9*whole.Power() {
			t.Logf("power %v != %v", whole.Power(), parts.Power())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
