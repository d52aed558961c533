package fleet

import (
	"fmt"

	"clustergate/internal/obs"
	"clustergate/internal/parallel"
)

// Transport-decision hash domains: each kind of draw mixes its own salt
// into the rollout seed so schedules decorrelate.
const (
	saltFlash   = 0x666c7368 // "flsh": transient flash failures
	saltCorrupt = 0x636f7272 // "corr": payload corruption draws
	saltFlip    = 0x666c6970 // "flip": flip-position seeds
)

// rollout is one Run's working state: the flash transport spec, the soak
// evaluator, and the event-log scope, composed from the step layer in
// steps.go.
type rollout struct {
	cfg    Config
	spec   FlashSpec
	soaker *Soaker

	// scope names this rollout in the event log; flight is the per-ring
	// health flight recorder, nil unless an event log is installed.
	scope  string
	flight *obs.Flight
}

// Run executes one rollout of img across the fleet and returns its
// deterministic outcome: same Config, image, and workload produce the
// identical Result at any Workers setting.
func Run(cfg Config, img []byte, wl Workload) (*Result, error) {
	defer obs.Start("fleet.rollout").End()
	if err := cfg.validate(&wl); err != nil {
		return nil, err
	}
	ro := &rollout{cfg: cfg, soaker: NewSoaker(wl, cfg.Guardrail)}
	ro.scope = cfg.Name
	if ro.scope == "" {
		ro.scope = fmt.Sprintf("rollout-seed%d", cfg.Seed)
	}
	ro.spec = FlashSpec{
		Seed: cfg.Seed, Img: img, Decode: DecodeOnce(img), Verify: cfg.Verify,
		CorruptProb: cfg.CorruptProb, CorruptBits: cfg.CorruptBits,
		FailProb: cfg.FlashFailProb, Retries: cfg.FlashRetries,
		Scope: ro.scope,
	}
	if obs.EventsActive() {
		ro.flight = obs.NewFlight(ro.scope, obs.DefaultFlightCap)
	}
	res := &Result{GateFailedRing: -1, Machines: make([]Machine, cfg.Machines)}
	rings := cfg.ringLayout()
	for ri, ring := range rings {
		for _, m := range ring {
			res.Machines[m].ID = m
			res.Machines[m].Ring = ri
		}
	}

	for ri, ring := range rings {
		rep := RingReport{Index: ri, Size: len(ring),
			FlashWaves: waves(len(ring), cfg.FlashPerStep)}
		outs, err := ro.flashRing(ring, &rep, res)
		if err != nil {
			return nil, err
		}
		res.TimeSteps += rep.FlashWaves
		failure := ""
		if cfg.Gate != nil {
			// Transport gate first: a ring whose flash phase already
			// failed (crashes, corruption pressure) is never soaked.
			failure = cfg.Gate.TransportFailure(&rep)
			if failure == "" {
				if err := ro.soakRing(ring, outs, &rep, res); err != nil {
					return nil, err
				}
				res.TimeSteps += cfg.SoakSteps
				failure = cfg.Gate.HealthFailure(&rep)
			}
		}
		rep.Promoted = failure == ""
		rep.GateFailure = failure
		// Ring health into the flight recorder and event log; everything
		// recorded is Result-derived, so files are worker-count independent.
		ro.flight.Record(obs.FlightSample{
			T: int64(ri), Installed: rep.Installed, Exposed: rep.Exposed,
			Trips: rep.Trips, Windows: rep.SLAWindows, Violations: rep.SLAViolations,
		})
		if obs.EventsActive() {
			if failure == "" {
				obs.Emit(ro.scope, int64(ri), "fleet.ring.promote", map[string]any{
					"size": rep.Size, "installed": rep.Installed,
				})
			} else {
				obs.Emit(ro.scope, int64(ri), "fleet.ring.halt", map[string]any{"reason": failure})
				ro.flight.DumpIncident("fleet.incident", map[string]any{"reason": failure})
			}
		}
		res.Rings = append(res.Rings, rep)
		if failure != "" {
			res.RolledBack = true
			res.GateFailedRing = ri
			res.GateFailure = failure
			ro.rollback(res)
			break
		}
	}

	for i := range res.Machines {
		st := &res.Machines[i]
		if st.Flashed {
			res.Flashed++
		}
		if st.Installed {
			res.Installed++
		}
		if st.Exposed {
			res.Exposed++
		}
	}
	for _, rep := range res.Rings {
		res.Rejected += rep.Rejected
		res.FlashRetries += rep.FlashRetries
		res.CRCRejects += rep.CRCRejects
	}
	res.Completed = res.Installed == cfg.Machines
	return res, nil
}

// flashRing pushes the image to every machine in the ring through the
// Flash step and folds the outcomes — in machine order — into the ring
// report and fleet state. Each Flash is a pure function of (seed, machine,
// phase), so outcomes are identical at any worker count.
func (ro *rollout) flashRing(ring []int, rep *RingReport, res *Result) ([]FlashOutcome, error) {
	outs, err := parallel.Map(ro.cfg.Workers, len(ring),
		func(j int) (FlashOutcome, error) {
			return ro.spec.Flash(ring[j], PhaseInstall), nil
		})
	if err != nil {
		return nil, err
	}
	for j, out := range outs {
		st := &res.Machines[ring[j]]
		st.FlashRetries = out.Retries
		st.CRCRejects = out.CRCRejects
		res.FlashAttempts += out.Attempts
		rep.FlashRetries += out.Retries
		rep.CRCRejects += out.CRCRejects
		if out.CRCRejects > 0 {
			rep.RejectedAttempts++
		}
		if !out.Installed {
			rep.Rejected++
			continue
		}
		st.Flashed, st.Installed = true, true
		rep.Installed++
		if out.Corrupt {
			st.Exposed = true
			rep.Exposed++
			machinesExposed.Inc()
		}
		if out.Crashed {
			st.Crashed = true
			rep.Crashes++
			if obs.EventsActive() {
				obs.Emit(ro.scope, int64(ring[j]), "fleet.machine.crash", map[string]any{
					"machine": ring[j], "ring": rep.Index,
					"reason": "installed payload failed to decode",
				})
			}
		}
	}
	return outs, nil
}

// soakRing runs every installed machine's guardrail-instrumented deploy
// loop on its workload slice and folds the health telemetry in machine
// order. A machine whose deployment crashed gets a fleet.machine.crash
// event carrying the deploy error that produced it; the Result bytes
// depend only on the Crashed flag, so the event is purely observational.
func (ro *rollout) soakRing(ring []int, outs []FlashOutcome, rep *RingReport, res *Result) error {
	rep.Soaked = true
	healths, err := parallel.Map(ro.cfg.Workers, len(ring),
		func(j int) (SoakHealth, error) {
			out := outs[j]
			if !out.Installed || out.Crashed || out.Ctrl == nil {
				return SoakHealth{}, nil // nothing to soak
			}
			ti := ring[j] % len(ro.soaker.wl.Traces)
			if out.Corrupt {
				// A corrupted-but-decodable controller is unique to this
				// machine; soak it directly.
				return ro.soaker.Deploy(out.Ctrl, ti).Health, nil
			}
			return ro.soaker.Pristine(out.Ctrl, ti).Health, nil
		})
	if err != nil {
		return err
	}
	for j, h := range healths {
		st := &res.Machines[ring[j]]
		st.Trips = h.Trips
		st.SLAWindows = h.Windows
		st.SLAViolations = h.Violations
		st.Misgated = h.Misgated
		st.Truth0 = h.Truth0
		rep.Trips += h.Trips
		rep.SLAWindows += h.Windows
		rep.SLAViolations += h.Violations
		rep.Misgated += h.Misgated
		rep.Truth0 += h.Truth0
		if h.Crashed {
			st.Crashed = true
			rep.Crashes++
			if obs.EventsActive() {
				obs.Emit(ro.scope, int64(ring[j]), "fleet.machine.crash", map[string]any{
					"machine": ring[j], "ring": rep.Index, "reason": h.CrashReason,
				})
			}
		}
	}
	return nil
}

// rollback reverts every machine currently running the new image to the
// previous one. Rollback re-activates the resident previous image (an A/B
// slot switch, a nil-image FlashSpec), so transport corruption does not
// apply — but each flash can still transiently fail and is retried under
// the same failure model and retry budget as the install phase.
func (ro *rollout) rollback(res *Result) {
	rollbacks.Inc()
	var ids []int
	for i := range res.Machines {
		if res.Machines[i].Installed {
			ids = append(ids, i)
		}
	}
	spec := FlashSpec{Seed: ro.cfg.Seed, FailProb: ro.cfg.FlashFailProb,
		Retries: ro.cfg.FlashRetries, Scope: ro.scope}
	// A slot switch only fails transiently, never terminally, so the
	// fan-out cannot return an error.
	outs, _ := parallel.Map(ro.cfg.Workers, len(ids),
		func(j int) (FlashOutcome, error) {
			return spec.Flash(ids[j], PhaseRollback), nil
		})
	for j, m := range ids {
		st := &res.Machines[m]
		st.Installed = false
		st.RolledBack = true
		res.RollbackRetries += outs[j].Retries
	}
	res.RollbackFlashes = len(ids)
	rollbackFlashes.Add(int64(len(ids)))
	if obs.EventsActive() {
		obs.Emit(ro.scope, int64(res.GateFailedRing), "fleet.rollback", map[string]any{
			"machines": len(ids),
		})
	}
	res.TimeSteps += waves(len(ids), ro.cfg.FlashPerStep)
}
