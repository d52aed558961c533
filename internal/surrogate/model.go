package surrogate

import (
	"fmt"
	"sync"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/ml/forest"
	"clustergate/internal/ml/linear"
	"clustergate/internal/power"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// maxResidual clamps the learned cycle correction to ±40%: a residual
// model can refine the analytic estimate but never overturn it, which
// bounds the damage of a mistrained model to something validate mode's
// spot checks will catch rather than a wild excursion.
const maxResidual = 0.4

// Model is a trained simulator surrogate: the analytic splice layer plus
// a regression residual over the Features schema predicting the relative
// cycle error of the spliced estimate (true/spliced − 1). Exactly one of
// Forest/Ridge is set, recorded in Backend; both are evaluated on the
// holdout at training time and the lower-MAE backend wins.
//
// A Model memoises its finished intervals per recording (see
// residualTable), so neither it nor the recordings it replays may be
// modified after its first deployment; retraining builds a new Model.
type Model struct {
	FeatureVersion int
	Backend        string // "forest" or "ridge"
	Forest         *forest.RegForest
	Ridge          *linear.Ridge
	// Fingerprint names the simulator configuration the model was trained
	// for; oracles fall back to exact simulation on mismatch.
	Fingerprint string
	// Samples, HoldoutMAE, and HoldoutP95 summarise training: total
	// interval samples, and the chosen backend's mean / 95th-percentile
	// absolute residual error on held-out traces.
	Samples    int
	HoldoutMAE float64
	HoldoutP95 float64

	// tables holds one table per recording the model has replayed, so
	// every deployment of a recording shares its finished intervals.
	tablesMu sync.Mutex
	tables   map[*dataset.TraceTelemetry]*residualTable
}

// Residual returns the clamped relative-cycle correction for a feature
// vector; a nil or backend-less model returns 0 (pure analytic splice).
func (m *Model) Residual(f []float64) float64 {
	if m == nil {
		return 0
	}
	var r float64
	switch {
	case m.Forest != nil:
		r = m.Forest.Predict(f)
	case m.Ridge != nil:
		r = m.Ridge.Predict(f)
	default:
		return 0
	}
	if r > maxResidual {
		return maxResidual
	}
	if r < -maxResidual {
		return -maxResidual
	}
	return r
}

// Replay runs one closed-loop deployment on the surrogate fast path,
// regardless of oracle mode: core.DeployFrom's decision loop over spliced
// recorded intervals corrected by the model's residual, read from the
// recording's table of finished intervals. The caller is responsible for
// fingerprint checks (Oracle.Deploy does both).
func (m *Model) Replay(g *core.GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, pm *power.Model, opts core.DeployOptions) (*core.GuardedDeploymentResult, error) {
	if m != nil && m.FeatureVersion != FeatureVersion {
		return nil, fmt.Errorf("surrogate: model feature schema v%d, package is v%d", m.FeatureVersion, FeatureVersion)
	}
	return core.DeployFrom(g, tr, ref, pm, opts, func() core.IntervalSource {
		return &traceModel{m: m, ref: ref, core: cfg.Core, clock: newSwitchClock(), table: m.residuals(ref)}
	})
}

// traceModel is the surrogate's core.IntervalSource for one deployment:
// the trace's recorded fixed-mode telemetry plus the trained residual,
// served from the recording's table of finished intervals (nil computes
// every interval).
type traceModel struct {
	m     *Model
	ref   *dataset.TraceTelemetry
	core  uarch.Config
	clock switchClock
	table *residualTable
	// checked reports that table has been checked against core; table is
	// nil from then on if it serves another core.
	checked bool
}

// NextInterval returns the surrogate's estimate of the exact simulator's
// interval delta (see estimate), as stored in the recording's table with
// its plausibility verdict: the deployment shares the vector and only
// reads it. An interval computed without a table carries no verdict. The
// recordings hold only full intervals, so it returns nil past their end.
func (t *traceModel) NextInterval(gidx int, mode uarch.Mode, derate float64) ([]float64, bool) {
	if gidx >= t.ref.Intervals() {
		return nil, false
	}
	sinceSwitch := t.clock.next(mode)
	if !t.checked {
		t.checked = true
		if t.table != nil && !t.table.serves(&t.core) {
			t.table = nil
		}
	}
	if t.table == nil {
		return t.estimate(gidx, mode, derate, sinceSwitch), false
	}
	v := t.table.interval(t, gidx, mode, derate, sinceSwitch)
	return v.base, v.plausible
}

// estimate computes interval gidx afresh: the recorded steady-state vector
// for the mode, spliced analytically, then cycle-corrected by the residual
// model and bounded again.
func (t *traceModel) estimate(gidx int, mode uarch.Mode, derate float64, sinceSwitch int) []float64 {
	rec := t.ref.HighPerf[gidx]
	if mode == uarch.ModeLowPower {
		rec = t.ref.LowPower[gidx]
	}
	base := Splice(rec.Base, mode, derate, sinceSwitch, &t.core)
	if r := t.m.Residual(intervalFeatures(t.ref, gidx, mode, derate, sinceSwitch)); r != 0 {
		base[idxCycles] = applyCycleBounds(base, mode, base[idxCycles]*(1+r), &t.core)
		base[idxStall] = stallFor(base)
	}
	return base
}

// intervalFeatures extracts the residual features of interval gidx of
// ref, replayed in mode, from the two fixed-mode recordings and the replay
// context.
func intervalFeatures(ref *dataset.TraceTelemetry, gidx int, mode uarch.Mode, derate float64, sinceSwitch int) []float64 {
	rec, other := ref.HighPerf[gidx], ref.LowPower[gidx]
	if mode == uarch.ModeLowPower {
		rec, other = other, rec
	}
	ratio := 1.0
	if rec.IPC > 0 {
		ratio = other.IPC / rec.IPC
	}
	return Features(rec.Base, mode == uarch.ModeLowPower, sinceSwitch, ratio, derate)
}
