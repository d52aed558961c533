package core

import (
	"fmt"

	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// DeployOptions harden a closed-loop deployment. The zero value deploys
// bare: no guardrail and no fault injection.
type DeployOptions struct {
	// Guardrail enables the SLA guardrail watchdog: implausible telemetry
	// and sustained gated-degradation streaks force the safe dual-cluster
	// (high-performance) mode until the backoff expires. Nil disables it.
	Guardrail *Guardrail
	// Injector schedules deterministic faults into the deployment: the
	// per-trace view is derived from the trace's own seed, so schedules
	// are identical at any worker count. Nil injects nothing.
	Injector *fault.Injector
}

// Deployment observability: closed-loop trace deployments completed, on
// any interval source, and individual gating predictions issued, for run
// manifests.
var (
	deploysDone = obs.NewCounter("core.deployments")
	predsIssued = obs.NewCounter("core.predictions")
)

// IntervalSource supplies a closed-loop deployment with its intervals, in
// order. Given the global interval index, the mode in effect and the DRAM
// derate factor for the interval, NextInterval returns the interval's
// base-signal vector (the telemetry.ExtractBase layout), or nil once the
// trace runs dry. The exact source executes the interval on the cycle
// model; the surrogate package estimates it from the trace's recorded
// fixed-mode telemetry. Implementations must be deterministic, and the
// deployment owns each returned slice.
type IntervalSource interface {
	NextInterval(gidx int, mode uarch.Mode, derate float64) []float64
}

// runnerSource is the exact interval source: a cycle-model runner stepping
// through the trace.
type runnerSource struct{ r *uarch.Runner }

// NextInterval executes the next interval in mode under derate.
func (s runnerSource) NextInterval(_ int, mode uarch.Mode, derate float64) []float64 {
	s.r.SetMode(mode)
	s.r.SetMemDerate(derate)
	delta, n := s.r.Next()
	if n == 0 {
		return nil
	}
	return telemetry.ExtractBase(delta)
}

// DeployWithOptions runs the controller closed-loop over one trace on the
// exact cycle model (see DeployFrom). The cycle model replays the trace's
// deployment tape (deployTape), so only the first deployment of a trace
// generates and probes it; results are identical to executing the trace
// live.
func DeployWithOptions(g *GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, pm *power.Model, opts DeployOptions) (*GuardedDeploymentResult, error) {
	return DeployFrom(g, tr, ref, pm, opts, func() IntervalSource {
		return runnerSource{deployTape(tr, cfg).Runner(uarch.ModeHighPerf, cfg.Warmup, g.Interval)}
	})
}

// recordedTape is a trace's deployment tape together with what it was
// recorded for: the core and the high-performance warmup its snapshot
// follows.
type recordedTape struct {
	core   uarch.Config
	warmup int
	tape   *uarch.Tape
}

// tapeFlight makes concurrent first deployments of a trace share one
// recording. It remembers nothing once a recording completes: the tape
// itself is held by the trace.
var tapeFlight parallel.Group[*uarch.Tape]

// deployTape returns tr's deployment tape for cfg, recording it on first
// use: the trace's front end for cfg.Core, warm after cfg.Warmup
// instructions in high-performance mode, as every deployment starts. The
// tape hangs off the trace (Trace.SetTape) and is freed with it; a
// deployment under another core or warmup records over it.
func deployTape(tr *trace.Trace, cfg dataset.Config) *uarch.Tape {
	held := func() *uarch.Tape {
		if r, ok := tr.Tape().(*recordedTape); ok && r.core == cfg.Core && r.warmup == cfg.Warmup {
			return r.tape
		}
		return nil
	}
	if t := held(); t != nil {
		return t
	}
	t, _, _ := tapeFlight.Do(fmt.Sprintf("%p/%d/%v", tr, cfg.Warmup, cfg.Core), func() (*uarch.Tape, error) {
		// A deployment that missed the lookup above while another one
		// finished recording finds the tape here.
		if t := held(); t != nil {
			return t, nil
		}
		t := uarch.RecordTape(cfg.Core, trace.NewStream(tr), cfg.Warmup)
		tr.SetTape(&recordedTape{core: cfg.Core, warmup: cfg.Warmup, tape: t})
		return t, nil
	})
	return t
}

// DeployFrom is the closed-loop deployment engine, the one decision loop
// behind every simulation oracle. It runs the controller over one trace
// on the intervals of the source open returns, with optional fault
// injection and the optional guardrail watchdog layered over the model's
// decisions: telemetry observed in window t drives the prediction made
// during t+1, applied in t+2 (Figure 3). open is called once the inputs
// pass their checks; every deployment starts warmed up in
// high-performance mode.
//
// Fault semantics mirror real silicon: telemetry faults corrupt only what
// the controller *observes* (execution and power accounting always use
// the true event stream); a dropped snapshot leaves the controller
// holding its previous decision; prediction faults hijack the model's
// output after it is computed. Pred records the model/fault pipeline's
// decisions (so PGOS/RSV measure the predictor), while Eff records the
// configuration actually applied after guardrail overrides (so effective
// SLA violations measure the system).
func DeployFrom(g *GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	pm *power.Model, opts DeployOptions, open func() IntervalSource) (*GuardedDeploymentResult, error) {
	if tr.Name != ref.TraceName {
		return nil, fmt.Errorf("core: trace %q does not match telemetry %q", tr.Name, ref.TraceName)
	}
	k := g.Granularity / g.Interval
	if k <= 0 {
		return nil, fmt.Errorf("core: invalid granularity/interval %d/%d", g.Granularity, g.Interval)
	}

	var state *guardrailState
	if opts.Guardrail != nil {
		gr := *opts.Guardrail
		gr.defaults()
		state = &guardrailState{cfg: gr}
	}
	ti := opts.Injector.ForTrace(tr.Seed)

	// Flight recorder + event log: only active when the process has an
	// event log installed (-events), so ordinary runs pay a single atomic
	// load. Everything recorded is derived from sim state — the interval
	// index is the clock — so event files are identical at any worker
	// count.
	var scope string
	var flight *obs.Flight
	if obs.EventsActive() {
		scope = "deploy/" + tr.Name
		flight = obs.NewFlight(scope, obs.DefaultFlightCap)
	}
	tripsSeen := 0
	var injectedSeen int64

	src := open()

	res := &GuardedDeploymentResult{}
	rng := newDeployRNG(tr.Seed)
	nWindows := ref.Intervals() / k

	// applied[w] is the configuration actually in effect during window w
	// (1 = gated), or -1 for windows the trace never reached.
	applied := make([]int8, nWindows)
	for i := range applied {
		applied[i] = -1
	}

	var window [][]float64
	var prevTrue, prevObserved []float64
	lowIntervals, totalIntervals := 0, 0
	// pending[w] is the mode decided for window w (two windows ahead).
	pending := make(map[int]uarch.Mode)
	prevPred := 0
	gidx := 0 // global interval index, the fault schedule's clock
	mode := uarch.ModeHighPerf

	for w := 0; w < nWindows; w++ {
		// Apply the decision made two windows ago (Figure 3 pipeline),
		// overridden to the safe mode while the guardrail backoff holds.
		if m, ok := pending[w]; ok {
			if state != nil && state.backoff > 0 {
				m = uarch.ModeHighPerf
			}
			if m != mode {
				res.Switches++
				mode = m
			}
			delete(pending, w)
		}
		if mode == uarch.ModeLowPower {
			applied[w] = 1
		} else {
			applied[w] = 0
		}

		window = window[:0]
		windowDropped := false
		for i := 0; i < k; i++ {
			// DRAM-derate faults perturb real execution, not just the
			// telemetry view: memory-port throughput degrades for this
			// interval, so IPC, power, and every downstream counter shift.
			// MemDerate counts the injection, so it is read exactly once per
			// interval; the flight recorder reuses this value.
			derate := 1.0
			if ti != nil {
				derate = ti.MemDerate(gidx)
			}
			trueBase := src.NextInterval(gidx, mode, derate)
			if trueBase == nil {
				break
			}
			observed := trueBase
			if ti != nil {
				o, _, dropped := ti.Telemetry(gidx, trueBase, prevTrue)
				observed = o
				if dropped {
					windowDropped = true
					if state != nil {
						state.noteBlackout()
					}
				}
			}
			window = append(window, observed)
			// Power accounting always follows true execution: faults
			// corrupt the telemetry fabric, not the pipeline.
			ev := telemetry.BaseToEvents(trueBase)
			res.Adaptive.Add(pm, ev, mode)
			gated := mode == uarch.ModeLowPower
			if gated {
				lowIntervals++
			}
			if state != nil {
				state.observeInterval(observed, prevObserved, gated)
				state.tick()
			}
			if flight != nil {
				sample := obs.FlightSample{
					T:     int64(gidx),
					Power: pm.Energy(ev, mode),
				}
				if ev.Cycles > 0 {
					sample.IPC = float64(ev.Instrs) / float64(ev.Cycles)
				}
				if derate != 1 {
					sample.MemDerate = derate
				}
				if gated {
					sample.Gated = 1
				}
				if state != nil {
					sample.Backoff = state.backoff
					sample.Trips = state.trips
				}
				flight.Record(sample)
				if state != nil && state.trips > tripsSeen {
					obs.Emit(scope, int64(gidx), "guardrail.trip", map[string]any{
						"reason":  state.reason,
						"trip":    state.trips,
						"backoff": state.cfg.BackoffIntervals,
					})
					if tripsSeen == 0 {
						// First trip of this deployment: freeze the flight
						// recorder's pre-incident window into the event log.
						flight.DumpIncident("guardrail.incident", map[string]any{"reason": state.reason})
					}
					tripsSeen = state.trips
				}
				if ti != nil {
					if inj := ti.Injected(); inj > injectedSeen {
						obs.Emit(scope, int64(gidx), "fault.injected", map[string]any{
							"count": inj - injectedSeen,
						})
						injectedSeen = inj
					}
				}
			}
			prevTrue = trueBase
			prevObserved = observed
			totalIntervals++
			gidx++
		}
		if len(window) < k {
			break
		}

		// Predict for window w+2 from window w's observed telemetry.
		if w+2 < nWindows {
			agg, per := g.windowVectors(window, rng)
			pred := g.decide(mode, agg, per)
			if ti != nil {
				if windowDropped {
					// No fresh snapshot arrived: the controller cannot
					// form a new prediction. Under the default policy it
					// holds its last decision; under safe-mode-on-blackout
					// it requests the safe dual-cluster mode instead.
					if state != nil && state.cfg.SafeModeOnBlackout {
						pred = 0
					} else {
						pred = prevPred
					}
				}
				pred, _ = ti.Prediction(w, pred, prevPred)
			}
			res.Pred = append(res.Pred, pred)
			res.Truth = append(res.Truth, windowTruth(ref, w+2, k, g.SLA))
			prevPred = pred
			if pred == 1 {
				pending[w+2] = uarch.ModeLowPower
			} else {
				pending[w+2] = uarch.ModeHighPerf
			}
		}
	}

	// Reference span: the recorded always-high run.
	for i := 0; i < totalIntervals && i < len(ref.HighPerf); i++ {
		res.Reference.Add(pm, telemetry.BaseToEvents(ref.HighPerf[i].Base), uarch.ModeHighPerf)
	}
	if totalIntervals > 0 {
		res.LowResidency = float64(lowIntervals) / float64(totalIntervals)
	}

	// Eff: the configuration the system actually ran during each
	// prediction's target window; decisions whose window the trace never
	// reached fall back to the decision itself.
	res.Eff = make([]int, len(res.Pred))
	for idx := range res.Pred {
		if w := idx + 2; w < nWindows && applied[w] >= 0 {
			res.Eff[idx] = int(applied[w])
		} else {
			res.Eff[idx] = res.Pred[idx]
		}
	}

	if state != nil {
		res.GuardrailTrips = state.trips
		res.BlackoutOverrides = state.blackouts
	}
	res.InjectedFaults = ti.Injected()
	deploysDone.Inc()
	predsIssued.Add(int64(len(res.Pred)))
	return res, nil
}
