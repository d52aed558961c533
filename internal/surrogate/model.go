package surrogate

import (
	"fmt"

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
// recorded intervals corrected by the model's residual. The caller is
// responsible for fingerprint checks (Oracle.Deploy does both).
func (m *Model) Replay(g *core.GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, pm *power.Model, opts core.DeployOptions) (*core.GuardedDeploymentResult, error) {
	if m != nil && m.FeatureVersion != FeatureVersion {
		return nil, fmt.Errorf("surrogate: model feature schema v%d, package is v%d", m.FeatureVersion, FeatureVersion)
	}
	return core.DeployFrom(g, tr, ref, pm, opts, func() core.IntervalSource {
		return &traceModel{m: m, ref: ref, core: cfg.Core, clock: newSwitchClock()}
	})
}

// traceModel is the surrogate's core.IntervalSource for one deployment:
// the trace's recorded fixed-mode telemetry plus the trained residual.
type traceModel struct {
	m     *Model
	ref   *dataset.TraceTelemetry
	core  uarch.Config
	clock switchClock
}

// NextInterval returns the surrogate's estimate of the exact simulator's
// interval delta: the recorded steady-state vector for the mode, spliced
// analytically, then cycle-corrected by the residual model. The
// recordings hold only full intervals, so it returns nil past their end.
func (t *traceModel) NextInterval(gidx int, mode uarch.Mode, derate float64) []float64 {
	if gidx >= t.ref.Intervals() {
		return nil
	}
	sinceSwitch := t.clock.next(mode)
	recs, other := t.ref.HighPerf, t.ref.LowPower
	if mode == uarch.ModeLowPower {
		recs, other = t.ref.LowPower, t.ref.HighPerf
	}
	rec := recs[gidx]
	base := Splice(rec.Base, mode, derate, sinceSwitch, t.core)
	if r := t.m.Residual(featuresFor(rec, other[gidx], mode, derate, sinceSwitch)); r != 0 {
		base[idxCycles] = applyCycleBounds(base, mode, base[idxCycles]*(1+r), t.core)
		base[idxStall] = stallFor(base)
	}
	return base
}

// featuresFor extracts the residual features for one replayed interval
// from the two fixed-mode recordings and the replay context.
func featuresFor(rec, other dataset.IntervalRecord, mode uarch.Mode, derate float64, sinceSwitch int) []float64 {
	ratio := 1.0
	if rec.IPC > 0 {
		ratio = other.IPC / rec.IPC
	}
	return Features(rec.Base, mode == uarch.ModeLowPower, sinceSwitch, ratio, derate)
}
