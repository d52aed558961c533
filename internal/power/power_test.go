package power

import (
	"testing"

	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

func runMode(t *testing.T, app *trace.Application, mode uarch.Mode, n int) uarch.Events {
	t.Helper()
	core := uarch.NewCoreInMode(uarch.DefaultConfig(), mode)
	s := trace.NewStream(&trace.Trace{App: app, Seed: 11, NumInstrs: n})
	buf := make([]trace.Instruction, 8192)
	for {
		k := s.Read(buf)
		if k == 0 {
			break
		}
		core.Execute(buf[:k])
	}
	return core.Events()
}

func TestLowPowerModeSavesAbout35Percent(t *testing.T) {
	m := DefaultModel()
	// Average the saving across a spread of archetypes, as the paper's
	// "on average, low-power mode consumes 35% less power" is a mean.
	var ratios []float64
	for _, arch := range []int{0, 7, 14, 21, 28, 35} {
		app := trace.NewApplication(arch, "pwr", int64(arch)*7+1)
		hi := runMode(t, app, uarch.ModeHighPerf, 150_000)
		lo := runMode(t, app, uarch.ModeLowPower, 150_000)
		ratios = append(ratios, m.Power(lo, uarch.ModeLowPower)/m.Power(hi, uarch.ModeHighPerf))
	}
	var mean float64
	for _, r := range ratios {
		mean += r
	}
	mean /= float64(len(ratios))
	if mean < 0.55 || mean > 0.75 {
		t.Errorf("mean low/high power ratio = %.3f (per-app %v), want ≈0.65", mean, ratios)
	}
}

func TestPowerComponents(t *testing.T) {
	m := DefaultModel()
	// Pure static: cycles but no events.
	ev := uarch.Events{Cycles: 1000}
	hi := m.Power(ev, uarch.ModeHighPerf)
	lo := m.Power(ev, uarch.ModeLowPower)
	if hi <= lo {
		t.Errorf("static power: high %v ≤ low %v", hi, lo)
	}
	wantHi := m.SharedStatic + 2*m.ClusterStatic
	if hi != wantHi {
		t.Errorf("high static = %v, want %v", hi, wantHi)
	}

	// Adding events increases energy monotonically.
	ev2 := ev
	ev2.Instrs = 4000
	ev2.FPOps = 500
	ev2.L2Misses = 50
	if m.Energy(&ev2, uarch.ModeHighPerf) <= m.Energy(&ev, uarch.ModeHighPerf) {
		t.Error("dynamic events did not increase energy")
	}
}

func TestPowerZeroCycles(t *testing.T) {
	m := DefaultModel()
	if m.Power(uarch.Events{}, uarch.ModeHighPerf) != 0 {
		t.Error("zero-cycle power should be 0")
	}
	if m.PPW(uarch.Events{}, uarch.ModeHighPerf) != 0 {
		t.Error("zero-cycle PPW should be 0")
	}
}

func TestPPWGatingWinsOnSerialCode(t *testing.T) {
	// Serial code runs at the same IPC in both modes, so PPW must be
	// higher in low-power mode — the entire premise of cluster gating.
	m := DefaultModel()
	app := trace.NewApplication(6, "serial", 99) // hpc-scalar-legacy: serial phases
	hi := runMode(t, app, uarch.ModeHighPerf, 150_000)
	lo := runMode(t, app, uarch.ModeLowPower, 150_000)
	ppwHi := m.PPW(hi, uarch.ModeHighPerf)
	ppwLo := m.PPW(lo, uarch.ModeLowPower)
	if ppwLo <= ppwHi*1.15 {
		t.Errorf("PPW low = %.4f vs high = %.4f; gating should win by >15%% on serial code",
			ppwLo, ppwHi)
	}
}

func TestSpanAccumulation(t *testing.T) {
	m := DefaultModel()
	var s Span
	ev := uarch.Events{Cycles: 100, Instrs: 250}
	s.Add(m, &ev, uarch.ModeHighPerf)
	s.Add(m, &ev, uarch.ModeLowPower)
	if s.Cycles != 200 || s.Instrs != 500 {
		t.Errorf("span totals = %+v", s)
	}
	if s.IPC() != 2.5 {
		t.Errorf("span IPC = %v, want 2.5", s.IPC())
	}
	wantEnergy := m.Energy(&ev, uarch.ModeHighPerf) + m.Energy(&ev, uarch.ModeLowPower)
	if s.Energy != wantEnergy {
		t.Errorf("span energy = %v, want %v", s.Energy, wantEnergy)
	}
	if s.PPW() <= 0 {
		t.Error("span PPW should be positive")
	}
}

func TestSpanZero(t *testing.T) {
	var s Span
	if s.IPC() != 0 || s.Power() != 0 || s.PPW() != 0 {
		t.Error("zero span should report zeros")
	}
}
