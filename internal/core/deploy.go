package core

import (
	"fmt"
	"math/rand"
	"sync"

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
// derate factor for the interval, NextInterval returns the interval as the
// source stores it, or nil once the trace runs dry. The exact source
// returns the interval its trace's deployment trie stores, simulating it
// on the cycle model first if no earlier deployment did; the surrogate
// package returns the estimate its recording's table stores, computing it
// from the recorded fixed-mode telemetry first if no earlier deployment
// did. Implementations must be deterministic. The returned intervals are
// read-only: the deployment only reads them, and the source must leave
// them unchanged until the deployment ends, so both sources hand out their
// stored intervals, shared with every other deployment, without copying
// them.
type IntervalSource interface {
	NextInterval(gidx int, mode uarch.Mode, derate float64) *StoredInterval
}

// StoredInterval is one interval as a source stores it, with what the
// decision loop needs of its vector taken once: the plausibility verdict,
// so that the guardrail runs only the freeze comparison on an unfaulted
// interval, and the power activity, so that power accounting does not
// convert the vector back to events.
type StoredInterval struct {
	// Base is the interval's base-signal vector (the
	// telemetry.ExtractBase layout).
	Base []float64
	// Plausible reports that Base passed telemetry.ImplausibleVector. A
	// source that did not check reports false, and the guardrail checks
	// the vector in full.
	Plausible bool
	// Activity is what the power model weighs of Base, read as
	// telemetry.BaseToEvents reads it.
	Activity power.Activity
}

// NewStoredInterval returns base, which the caller hands over, as a source
// stores it: with its plausibility verdict and its power activity.
func NewStoredInterval(base []float64) StoredInterval {
	var ev uarch.Events
	telemetry.BaseToEvents(base, &ev)
	return StoredInterval{Base: base, Plausible: telemetry.ImplausibleVector(base) == "", Activity: power.ActivityOf(&ev)}
}

// DeployWithOptions runs the controller closed-loop over one trace on the
// exact cycle model (see DeployFrom). The cycle model replays the trace's
// deployment tape (deployTape), so only the first deployment of a trace
// generates and probes it. The tape's deployment DAG (deployTrie) serves
// every interval an earlier deployment of the same length already
// simulated: a node is a shift-free machine state, an edge one (mode,
// DRAM derate) step from it, so a deployment reads each step it shares
// with an earlier one from the edge, and simulates only a new step, from
// its own node's checkpoint; the new edge joins the node whose checkpoint
// bytes equal its end state's, if one exists. Results are identical to
// executing the trace live.
func DeployWithOptions(g *GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, pm *power.Model, opts DeployOptions) (*GuardedDeploymentResult, error) {
	var src *trieSource
	defer func() {
		if src != nil {
			src.close()
		}
	}()
	return DeployFrom(g, tr, ref, pm, opts, func() IntervalSource {
		k := g.Granularity / g.Interval
		src = deployTape(tr, cfg).trie(g.Interval, ref.Intervals()/k*k).source()
		return src
	})
}

// recordedTape is a trace's deployment tape together with what it was
// recorded for — the core and the high-performance warmup its snapshot
// follows — and the deployment tries over it.
type recordedTape struct {
	core   uarch.Config
	warmup int
	tape   *uarch.Tape

	mu    sync.Mutex
	tries map[[2]int]*deployTrie // by interval size and deployment length
}

// trie returns the tape's trie for deployments of length intervals of
// interval instructions each, creating it on first use.
func (r *recordedTape) trie(interval, length int) *deployTrie {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := [2]int{interval, length}
	t := r.tries[key]
	if t == nil {
		t = newDeployTrie(r, interval)
		r.tries[key] = t
	}
	return t
}

// tapeFlight makes concurrent first deployments of a trace share one
// recording. It remembers nothing once a recording completes: the tape
// itself is held by the trace.
var tapeFlight parallel.Group[*recordedTape]

// deployTape returns tr's deployment tape for cfg, recording it on first
// use: the trace's front end for cfg.Core, warm after cfg.Warmup
// instructions in high-performance mode, as every deployment starts. The
// tape hangs off the trace (Trace.SetTape) and is freed with it; a
// deployment under another core or warmup records over it, dropping its
// tries.
func deployTape(tr *trace.Trace, cfg dataset.Config) *recordedTape {
	held := func() *recordedTape {
		if r, ok := tr.Tape().(*recordedTape); ok && r.core == cfg.Core && r.warmup == cfg.Warmup {
			return r
		}
		return nil
	}
	if r := held(); r != nil {
		return r
	}
	r, _, _ := tapeFlight.Do(fmt.Sprintf("%p/%d/%v", tr, cfg.Warmup, cfg.Core), func() (*recordedTape, error) {
		// A deployment that missed the lookup above while another one
		// finished recording finds the tape here.
		if r := held(); r != nil {
			return r, nil
		}
		r := &recordedTape{
			core: cfg.Core, warmup: cfg.Warmup,
			tape:  uarch.RecordTape(cfg.Core, trace.NewStream(tr), cfg.Warmup),
			tries: map[[2]int]*deployTrie{},
		}
		tr.SetTape(r)
		return r, nil
	})
	return r
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
	// An observed vector is read only within its window and as the next
	// interval's prevObserved: k+1 intervals' vectors at most, so the
	// fault view keeps that many glitched ones.
	ti := opts.Injector.ForTrace(tr.Seed, k+1)

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
	// The controller reads only its columns; the noise stream has no
	// other reader, so it is seeded only when a selected counter draws.
	// The set builds the columns' projection once, for every deployment.
	proj := g.Counters.Project(g.Columns)
	var rng *rand.Rand
	if proj.DrawsNoise() {
		rng = newDeployRNG(tr.Seed)
	}
	snapshots := 0
	nWindows := ref.Intervals() / k

	// applied[w] is the configuration actually in effect during window w
	// (1 = gated), or -1 for windows the trace never reached.
	applied := make([]int8, nWindows)
	for i := range applied {
		applied[i] = -1
	}

	window := make([][]float64, 0, k)
	var vecs windowBuf
	var prevTrue, prevObserved []float64
	lowIntervals, totalIntervals := 0, 0
	// pending[w] is the mode decided for window w, two windows ahead. Every
	// window from 2 on has one: the loop stops at the first short window,
	// and each full window before the last two decides.
	pending := make([]uarch.Mode, nWindows)
	prevPred := 0
	gidx := 0 // global interval index, the fault schedule's clock
	mode := uarch.ModeHighPerf

	for w := 0; w < nWindows; w++ {
		// Apply the decision made two windows ago (Figure 3 pipeline),
		// overridden to the safe mode while the guardrail backoff holds.
		if w >= 2 {
			m := pending[w]
			if state != nil && state.backoff > 0 {
				m = uarch.ModeHighPerf
			}
			if m != mode {
				res.Switches++
				mode = m
			}
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
			iv := src.NextInterval(gidx, mode, derate)
			if iv == nil {
				break
			}
			trueBase, plausible := iv.Base, iv.Plausible
			observed := trueBase
			if ti != nil {
				o, faulted, dropped := ti.Telemetry(gidx, trueBase, prevTrue)
				// The source's verdict is on its own vector only.
				observed, plausible = o, plausible && !faulted
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
			res.Adaptive.AddActivity(pm, &iv.Activity, mode)
			gated := mode == uarch.ModeLowPower
			if gated {
				lowIntervals++
			}
			if state != nil {
				state.observeInterval(observed, prevObserved, plausible, gated)
				state.tick()
			}
			if flight != nil {
				sample := obs.FlightSample{
					T:     int64(gidx),
					Power: pm.ActivityEnergy(&iv.Activity, mode),
				}
				if a := &iv.Activity; a.Cycles > 0 {
					sample.IPC = float64(a.Instrs) / float64(a.Cycles)
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
			agg, per, n := vecs.fill(proj, window, rng, g.reads(mode))
			snapshots += n
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
			if res.Pred == nil {
				// Every later full window decides too.
				res.Pred, res.Truth = make([]int, 0, nWindows-2), make([]int, 0, nWindows-2)
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

	// Reference span: the recorded always-high run, summed once per
	// recording and power model.
	res.Reference = ref.HighPerfSpan(pm, totalIntervals)
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
	proj.Count(snapshots)
	deploysDone.Inc()
	predsIssued.Add(int64(len(res.Pred)))
	return res, nil
}
