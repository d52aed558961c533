package core

import (
	"clustergate/internal/obs"
	"clustergate/internal/telemetry"
)

// Guardrail is the fail-safe mechanism Section 3.1 reserves for the final
// CPU design: a reactive hardware monitor, independent of the ML models,
// that forces the core back to the safe dual-cluster (high-performance)
// mode when gated execution shows signs of degradation, and holds it
// there for a backoff period.
//
// The watchdog distrusts the adaptation model on two signals:
//
//   - Misprediction streaks. The guardrail only observes gated execution,
//     so it cannot know true high-performance IPC; it uses the model-side
//     proxy the paper hints at — sustained issue-bandwidth saturation
//     while gated (the cluster is issuing at its full width and
//     accumulating ready-µop backlog, so the second cluster would very
//     likely help). TripIntervals consecutive saturated intervals trip it.
//   - Implausible telemetry. When the counter stream itself is corrupt —
//     dropped snapshots, frozen counters, glitched readings that break
//     physical invariants (telemetry.ImplausibleBase) — the model's
//     inputs cannot be trusted, so gating is suspended the same way.
//
// Every trip increments the core.guardrail.trips counter, so run
// manifests record how often the fallback path was exercised.
type Guardrail struct {
	// SaturationThreshold is the fraction of gated-interval cycles that
	// were busy above which the interval counts as saturated. Zero selects
	// 0.95.
	SaturationThreshold float64
	// ReadyWaitPerInstr is the ready-µop queueing delay per instruction
	// above which a saturated interval is treated as degraded. Zero
	// selects 0.5 cycles/instruction.
	ReadyWaitPerInstr float64
	// TripIntervals is how many consecutive degraded (or implausible)
	// intervals trip the guardrail. Zero selects 2.
	TripIntervals int
	// BackoffIntervals is how long gating stays forbidden after a trip.
	// Zero selects 8.
	BackoffIntervals int
	// SafeModeOnBlackout selects the telemetry-blackout recovery policy.
	// When the counter stream stops arriving (a dropped snapshot or a
	// trace-outage window), the default controller behaviour is to hold
	// its last decision; with this policy the watchdog instead forces the
	// safe dual-cluster mode for the duration of the blackout, releasing
	// it shortly after fresh telemetry returns. The false default keeps
	// existing configurations bit-identical.
	SafeModeOnBlackout bool
}

// GuardrailSignals is how many telemetry signals the watchdog monitors
// per interval (cycles, instructions, busy cycles, ready-wait cycles, and
// the two derived ratios); it keys the mcu.WatchdogCost charged against
// the firmware budget when a controller is built for guarded deployment.
const GuardrailSignals = 6

// DefaultGuardrail returns a permissive configuration, per the paper's
// goal of setting guardrails "as permissively as possible".
func DefaultGuardrail() Guardrail {
	return Guardrail{
		SaturationThreshold: 0.90,
		ReadyWaitPerInstr:   0.5,
		TripIntervals:       2,
		BackoffIntervals:    8,
	}
}

func (gr *Guardrail) defaults() {
	if gr.SaturationThreshold == 0 {
		gr.SaturationThreshold = 0.90
	}
	if gr.ReadyWaitPerInstr == 0 {
		gr.ReadyWaitPerInstr = 0.5
	}
	if gr.TripIntervals == 0 {
		gr.TripIntervals = 2
	}
	if gr.BackoffIntervals == 0 {
		gr.BackoffIntervals = 8
	}
}

// guardrailTrips counts every guardrail trip process-wide, for run
// manifests (the ISSUE's guardrail/trips counter).
var guardrailTrips = obs.NewCounter("core.guardrail.trips")

// guardrailBlackouts counts intervals where the safe-mode-on-blackout
// policy overrode the controller during a telemetry blackout.
var guardrailBlackouts = obs.NewCounter("core.guardrail.blackouts")

// guardrailState tracks the watchdog across intervals.
type guardrailState struct {
	cfg         Guardrail
	degraded    int // consecutive degraded gated intervals
	implausible int // consecutive implausible telemetry intervals
	backoff     int // intervals remaining in forced high-perf
	trips       int
	blackouts   int    // intervals overridden by safe-mode-on-blackout
	reason      string // what the latest trip fired on, for the event log
}

// trip forces the safe mode for the backoff period and records the event.
func (s *guardrailState) trip() {
	s.backoff = s.cfg.BackoffIntervals
	s.degraded = 0
	s.trips++
	guardrailTrips.Inc()
}

// noteBlackout records one dark (dropped-telemetry) interval. Under the
// safe-mode-on-blackout policy the watchdog treats the dark interval like
// an active backoff: gating is forbidden until at least two intervals of
// fresh telemetry have arrived, so a sustained outage keeps the core
// pinned to the safe dual-cluster mode for its whole duration. Under the
// default (hold) policy this is a no-op.
func (s *guardrailState) noteBlackout() {
	if !s.cfg.SafeModeOnBlackout {
		return
	}
	s.blackouts++
	guardrailBlackouts.Inc()
	if s.backoff < 2 {
		s.backoff = 2
	}
}

// observe inspects one gated interval's events and updates the
// misprediction-streak (saturation) trip state.
func (s *guardrailState) observe(base []float64) {
	ev := telemetry.BaseToEvents(base)
	if ev.Cycles == 0 || ev.Instrs == 0 {
		return
	}
	busyFrac := float64(ev.BusyCycles) / float64(ev.Cycles)
	readyWait := float64(ev.ReadyWaitCycles) / float64(ev.Instrs)
	if busyFrac >= s.cfg.SaturationThreshold && readyWait >= s.cfg.ReadyWaitPerInstr {
		s.degraded++
		if s.degraded >= s.cfg.TripIntervals {
			s.reason = "gated-saturation"
			s.trip()
		}
	} else {
		s.degraded = 0
	}
}

// observeInterval is the per-interval watchdog: it first screens the
// observed telemetry for plausibility (in any mode — a model fed garbage
// must not be allowed to gate), then, while gated, applies the saturation
// misprediction proxy to it.
func (s *guardrailState) observeInterval(observed, prevObserved []float64, gated bool) {
	if reason := telemetry.ImplausibleBase(observed, prevObserved); reason != "" {
		s.implausible++
		s.degraded = 0
		if s.implausible >= s.cfg.TripIntervals {
			s.reason = "implausible-telemetry"
			s.trip()
			s.implausible = 0
		}
		return
	}
	s.implausible = 0
	if gated {
		s.observe(observed)
	}
}

// tick consumes one interval of backoff; it reports whether gating is
// currently forbidden.
func (s *guardrailState) tick() bool {
	if s.backoff > 0 {
		s.backoff--
		return true
	}
	return false
}

// GuardedDeploymentResult extends a deployment with guardrail accounting.
type GuardedDeploymentResult struct {
	DeploymentResult
	GuardrailTrips int
	// BlackoutOverrides counts the dark intervals the
	// safe-mode-on-blackout policy overrode to the safe mode; always zero
	// under the default hold-last-decision policy.
	BlackoutOverrides int
}
