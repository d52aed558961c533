package core

import (
	"testing"

	"clustergate/internal/telemetry"
	"clustergate/internal/uarch"
)

// degradedBase builds a base vector that looks like saturated gated
// execution: nearly all cycles busy with heavy ready-µop queueing.
func degradedBase() []float64 {
	return telemetry.ExtractBase(uarch.Events{
		Cycles: 3000, BusyCycles: 2950, Instrs: 10_000,
		ReadyWaitCycles: 15_000,
	})
}

// healthyBase looks like comfortable gated execution.
func healthyBase() []float64 {
	return telemetry.ExtractBase(uarch.Events{
		Cycles: 6000, BusyCycles: 4000, Instrs: 10_000,
		ReadyWaitCycles: 1_000,
	})
}

// TestGuardrailBaseIndices pins the positions the saturation proxy reads
// to the telemetry.BaseNames order.
func TestGuardrailBaseIndices(t *testing.T) {
	for idx, name := range map[int]string{baseInstrs: "instructions", baseBusy: "busy_cycles",
		baseReadyWait: "ready_wait_cycles", baseCycles: "cycles"} {
		if telemetry.BaseNames[idx] != name {
			t.Errorf("index %d: the guardrail expects %q, telemetry has %q", idx, name, telemetry.BaseNames[idx])
		}
	}
}

func TestGuardrailTripsOnSustainedSaturation(t *testing.T) {
	gr := DefaultGuardrail()
	s := guardrailState{cfg: gr}
	s.observe(degradedBase())
	if s.backoff != 0 {
		t.Fatal("guardrail tripped after a single degraded interval")
	}
	s.observe(degradedBase())
	if s.backoff != gr.BackoffIntervals {
		t.Fatalf("backoff = %d after %d degraded intervals, want %d",
			s.backoff, gr.TripIntervals, gr.BackoffIntervals)
	}
	if s.trips != 1 {
		t.Fatalf("trips = %d, want 1", s.trips)
	}
	// Backoff drains one interval at a time.
	for i := 0; i < gr.BackoffIntervals; i++ {
		if !s.tick() {
			t.Fatalf("tick %d: gating allowed during backoff", i)
		}
	}
	if s.tick() {
		t.Fatal("gating still forbidden after backoff expiry")
	}
}

func TestGuardrailResetsOnHealthyInterval(t *testing.T) {
	s := guardrailState{cfg: DefaultGuardrail()}
	s.observe(degradedBase())
	s.observe(healthyBase())
	s.observe(degradedBase())
	if s.trips != 0 {
		t.Fatal("non-consecutive degradation tripped the guardrail")
	}
}

// TestGuardrailTripsWithinSLAWindow proves the watchdog's reaction
// latency: a sustained misprediction streak (saturated gated execution)
// trips the guardrail within far fewer intervals than one SLA measurement
// window, so the fallback engages before a single window's majority of
// decisions can go wrong.
func TestGuardrailTripsWithinSLAWindow(t *testing.T) {
	gr := DefaultGuardrail()
	s := guardrailState{cfg: gr}
	slaIntervals := SLAWindowInstrs / 10_000 // intervals per SLA window
	tripped := -1
	var prev []float64
	for i := 0; i < slaIntervals; i++ {
		b := degradedBase()
		b[0] += float64(i) // keep consecutive vectors distinct (not frozen)
		s.observeInterval(b, prev, false, true)
		prev = b
		if s.backoff > 0 {
			tripped = i + 1
			break
		}
	}
	if tripped < 0 {
		t.Fatalf("sustained misprediction streak never tripped within one SLA window (%d intervals)", slaIntervals)
	}
	if tripped > slaIntervals/2 {
		t.Errorf("tripped after %d intervals; want within half an SLA window (%d)", tripped, slaIntervals/2)
	}
}

// TestGuardrailTripsOnImplausibleTelemetry proves the plausibility path:
// frozen (identical consecutive) telemetry trips the watchdog even when
// the core is not gated, and a clean interval resets the streak.
func TestGuardrailTripsOnImplausibleTelemetry(t *testing.T) {
	s := guardrailState{cfg: DefaultGuardrail()}
	frozen := healthyBase()
	s.observeInterval(frozen, nil, false, false) // first read: nothing to compare
	s.observeInterval(frozen, frozen, false, false)
	s.observeInterval(frozen, frozen, false, false)
	if s.trips != 1 {
		t.Fatalf("trips = %d after sustained frozen telemetry, want 1", s.trips)
	}

	s2 := guardrailState{cfg: DefaultGuardrail()}
	s2.observeInterval(frozen, frozen, false, false)
	healthy := healthyBase()
	healthy[0]++
	s2.observeInterval(healthy, frozen, false, false)
	s2.observeInterval(frozen, healthy, false, false)
	if s2.trips != 0 {
		t.Fatalf("non-consecutive implausibility tripped the guardrail (%d trips)", s2.trips)
	}
}

// TestSafeModeOnBlackout pins the blackout recovery policy's state
// machine: under safe-mode-on-blackout a dark interval forces (and keeps
// refreshing) a short backoff without shortening a trip's longer one,
// while the default hold policy ignores blackouts entirely.
func TestSafeModeOnBlackout(t *testing.T) {
	gr := DefaultGuardrail()
	gr.SafeModeOnBlackout = true
	s := guardrailState{cfg: gr}
	s.noteBlackout()
	if s.backoff < 2 {
		t.Fatalf("backoff = %d after a dark interval, want >= 2", s.backoff)
	}
	if s.blackouts != 1 {
		t.Fatalf("blackouts = %d, want 1", s.blackouts)
	}
	s.backoff = 5 // an earlier trip's longer backoff must survive
	s.noteBlackout()
	if s.backoff != 5 {
		t.Fatalf("blackout shortened a trip's backoff to %d", s.backoff)
	}

	hold := guardrailState{cfg: DefaultGuardrail()}
	hold.noteBlackout()
	if hold.backoff != 0 || hold.blackouts != 0 {
		t.Fatalf("default policy reacted to a blackout: backoff=%d blackouts=%d",
			hold.backoff, hold.blackouts)
	}
}

func TestDeployGuardedNeverWorseOnViolations(t *testing.T) {
	e := env(t)
	// An always-gate controller is the worst case the guardrail exists
	// for: deploy on a high-ILP-heavy benchmark's trace.
	g := scriptedController(e, 1.0)
	var idx int = -1
	for i, tr := range e.spec.Traces {
		if tr.App.Benchmark == "625.x264_s" {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Skip("no x264 trace in subset")
	}
	plain, err := DeployWithOptions(g, e.spec.Traces[idx], e.specTel[idx], e.cfg, e.pm, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gr := DefaultGuardrail()
	guarded, err := DeployWithOptions(g, e.spec.Traces[idx], e.specTel[idx], e.cfg, e.pm, DeployOptions{Guardrail: &gr})
	if err != nil {
		t.Fatal(err)
	}
	if guarded.GuardrailTrips == 0 {
		t.Error("guardrail never tripped while force-gating a high-ILP benchmark")
	}
	if guarded.RelPerformance() < plain.RelPerformance()-1e-9 {
		t.Errorf("guardrail reduced performance: %.3f vs %.3f",
			guarded.RelPerformance(), plain.RelPerformance())
	}
	if guarded.LowResidency >= plain.LowResidency {
		t.Errorf("guardrail did not reduce wrongful residency: %.3f vs %.3f",
			guarded.LowResidency, plain.LowResidency)
	}
}

func TestDeployGuardedTransparentWhenSafe(t *testing.T) {
	e := env(t)
	// A never-gate controller never triggers the guardrail.
	g := scriptedController(e, 0.0)
	gr := DefaultGuardrail()
	r, err := DeployWithOptions(g, e.spec.Traces[0], e.specTel[0], e.cfg, e.pm, DeployOptions{Guardrail: &gr})
	if err != nil {
		t.Fatal(err)
	}
	if r.GuardrailTrips != 0 {
		t.Errorf("guardrail tripped %d times without gating", r.GuardrailTrips)
	}
	if r.LowResidency != 0 {
		t.Errorf("residency = %v without gating", r.LowResidency)
	}
}
