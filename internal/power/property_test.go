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

// eventEnergy is Energy as it read before activities: the dynamic terms
// summed straight from the event fields. It is the reference the activity
// path is held to.
func eventEnergy(m *Model, ev *uarch.Events, mode uarch.Mode) float64 {
	e := m.staticPerCycle(mode) * float64(ev.Cycles)
	e += m.PerUop * float64(ev.Instrs+ev.RegTransferUops)
	e += m.PerL1DAccess * float64(ev.L1DHits+ev.L1DMisses)
	e += m.PerL2Access * float64(ev.L2Hits+ev.L2Misses)
	e += m.PerMemAccess * float64(ev.L2Misses)
	e += m.PerFPOp * float64(ev.FPOps)
	e += m.PerMispred * float64(ev.Mispredicts)
	e += m.PerWrongPath * float64(ev.WrongPathUops)
	e += m.PerISide * float64(ev.UopCacheHits+ev.UopCacheMisses+ev.L1IHits+ev.L1IMisses)
	return e
}

// TestActivityEnergyMatchesEventsProperty: over random events in every
// field Energy weighs, in both modes, Energy, ActivityEnergy and a span
// built by AddActivity equal the per-event formula bit for bit, and a span
// built by Add equals one built by AddActivity.
func TestActivityEnergyMatchesEventsProperty(t *testing.T) {
	m := DefaultModel()
	f := func(raw [13]uint32, low bool) bool {
		ev := uarch.Events{
			Cycles: uint64(raw[0]), Instrs: uint64(raw[1]), RegTransferUops: uint64(raw[2]),
			L1DHits: uint64(raw[3]), L1DMisses: uint64(raw[4]), L2Hits: uint64(raw[5]),
			L2Misses: uint64(raw[6]), FPOps: uint64(raw[7]), Mispredicts: uint64(raw[8]),
			WrongPathUops: uint64(raw[9]), UopCacheHits: uint64(raw[10]), UopCacheMisses: uint64(raw[11]),
			L1IHits: uint64(raw[12]) << 20, L1IMisses: uint64(raw[12]),
		}
		mode := uarch.ModeHighPerf
		if low {
			mode = uarch.ModeLowPower
		}
		want := math.Float64bits(eventEnergy(m, &ev, mode))
		a := ActivityOf(&ev)
		var byEvents, byActivity Span
		byEvents.Add(m, &ev, mode)
		byActivity.AddActivity(m, &a, mode)
		return math.Float64bits(m.Energy(&ev, mode)) == want &&
			math.Float64bits(m.ActivityEnergy(&a, mode)) == want &&
			math.Float64bits(byActivity.Energy) == want &&
			byActivity == byEvents && byActivity.Cycles == ev.Cycles && byActivity.Instrs == ev.Instrs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
