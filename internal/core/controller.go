// Package core implements the paper's contribution: predictive cluster
// gating driven by machine-learning adaptation models executing in
// microcontroller firmware (Figure 1). A GatingController pairs one model
// per cluster configuration with calibrated sensitivity thresholds and a
// prediction granularity; DeployFrom runs the controller closed-loop over
// an interval source — the cycle-level CPU model (DeployWithOptions) or a
// surrogate — switching modes with the paper's t→t+2 pipeline
// (telemetry from interval t, computed during t+1, applied at t+2), and
// reports PPW against an always-high-performance reference plus the
// PGOS/RSV prediction metrics of Section 4.2.
package core

import (
	"fmt"
	"math/rand"

	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
	"clustergate/internal/metrics"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/uarch"
)

// Predictor is one mode's adaptation model as seen by the controller: it
// scores a prediction window, receiving both the aggregated counter vector
// and the per-interval vectors (histogram models use the latter). The
// deployment refills the same vectors for every window, so ScoreWindow
// must not keep agg, perInterval or its vectors after it returns.
type Predictor interface {
	ScoreWindow(agg []float64, perInterval [][]float64) float64
}

// PointPredictor adapts any point model (MLP, RF, LR, SVM, or their
// firmware wrappers) to the window interface using the aggregate vector.
type PointPredictor struct {
	M interface{ Score([]float64) float64 }
}

// ScoreWindow scores the aggregated counter vector.
func (p PointPredictor) ScoreWindow(agg []float64, _ [][]float64) float64 {
	return p.M.Score(agg)
}

// WindowPredictor adapts a window-consuming model such as SRCH.
type WindowPredictor struct {
	M interface{ ScoreWindow([][]float64) float64 }
}

// ScoreWindow scores the per-interval window.
func (p WindowPredictor) ScoreWindow(_ []float64, win [][]float64) float64 {
	return p.M.ScoreWindow(win)
}

// GatingController is a deployed adaptation configuration: the per-mode
// model pair (Section 4.1 trains one model on each mode's telemetry), their
// calibrated thresholds, the counter subset, and the prediction
// granularity supported by the microcontroller budget.
type GatingController struct {
	Name string

	// HighPerf scores telemetry recorded in high-performance mode;
	// LowPower scores telemetry recorded in low-power mode.
	HighPerf, LowPower Predictor
	// ThresholdHigh and ThresholdLow are the per-model sensitivities: a
	// score at or above the threshold selects low-power mode.
	ThresholdHigh, ThresholdLow float64

	// Interval is the telemetry snapshot granularity (10k instructions).
	Interval int
	// Granularity is the prediction/adaptation interval in instructions;
	// it must be a multiple of Interval.
	Granularity int

	// Counters is the full counter space; Columns the selected subset fed
	// to the models (nil = all).
	Counters *telemetry.CounterSet
	Columns  []int

	// SLA defines ground truth for evaluation.
	SLA dataset.SLA

	// OpsPerPrediction is the firmware inference cost, for budget checks.
	OpsPerPrediction int

	// WatchdogOps is the guardrail watchdog's firmware cost per prediction
	// granularity (one monitor pass per telemetry interval), reserved out
	// of the op budget when the controller was built for guarded
	// deployment; zero for a bare build.
	WatchdogOps int
}

// Validate checks structural consistency and the microcontroller budget.
func (g *GatingController) Validate(spec mcu.Spec) error {
	if g.HighPerf == nil || g.LowPower == nil {
		return fmt.Errorf("core: controller %q missing a per-mode model", g.Name)
	}
	if g.Interval <= 0 || g.Granularity <= 0 || g.Granularity%g.Interval != 0 {
		return fmt.Errorf("core: granularity %d not a positive multiple of interval %d",
			g.Granularity, g.Interval)
	}
	if g.OpsPerPrediction > 0 && g.OpsPerPrediction+g.WatchdogOps > spec.OpsBudget(g.Granularity) {
		return fmt.Errorf("core: %q needs %d ops (+%d watchdog) but the %d-instruction budget is %d",
			g.Name, g.OpsPerPrediction, g.WatchdogOps, g.Granularity, spec.OpsBudget(g.Granularity))
	}
	return nil
}

// windowBuf holds one deployment's model-input vectors — the window's
// summed base signals, its aggregate snapshot and one snapshot per
// interval — which every window refills.
type windowBuf struct {
	sum, agg []float64
	per      [][]float64
}

// fill converts a window of base-signal deltas into the model's input
// space through the controller's projection (Counters projected onto
// Columns): the normalised aggregate vector and per-interval vectors,
// written into b's vectors, which the next call overwrites.
func (b *windowBuf) fill(proj *telemetry.Projection, window [][]float64, rng *rand.Rand) (agg []float64, per [][]float64) {
	b.sum = telemetry.AggregateInto(b.sum, window)
	b.agg = proj.SnapshotInto(b.agg, b.sum, true, rng)
	if len(b.per) != len(window) {
		// The per-interval vectors share one allocation.
		w := len(b.agg)
		all := make([]float64, len(window)*w)
		b.per = make([][]float64, len(window))
		for i := range b.per {
			b.per[i] = all[i*w : (i+1)*w : (i+1)*w]
		}
	}
	for i, base := range window {
		b.per[i] = proj.SnapshotInto(b.per[i], base, true, rng)
	}
	return b.agg, b.per
}

// decide runs the mode-appropriate model on a window and applies its
// threshold; it returns the predicted configuration (1 = gate).
func (g *GatingController) decide(mode uarch.Mode, agg []float64, per [][]float64) int {
	var score, thr float64
	if mode == uarch.ModeLowPower {
		score = g.LowPower.ScoreWindow(agg, per)
		thr = g.ThresholdLow
	} else {
		score = g.HighPerf.ScoreWindow(agg, per)
		thr = g.ThresholdHigh
	}
	if score >= thr {
		return 1
	}
	return 0
}

// DeploymentResult reports one trace's closed-loop run.
type DeploymentResult struct {
	// Pred[t] is the configuration the controller chose for prediction
	// window t; Truth[t] is the SLA-optimal configuration.
	Pred, Truth []int
	// Eff[t] is the configuration actually applied during prediction
	// window t after any guardrail override; without a guardrail it
	// equals Pred. SLA violations of the *system* are measured on Eff,
	// violations of the *model* on Pred.
	Eff []int
	// InjectedFaults counts fault events injected into this deployment
	// (zero without an injector).
	InjectedFaults int64
	// Adaptive accumulates the adaptive run; Reference the always-high
	// fixed-mode run of the same instructions.
	Adaptive, Reference power.Span
	// LowResidency is the fraction of recorded intervals spent gated.
	LowResidency float64
	// Switches counts mode transitions.
	Switches int
}

// PPWGain returns the relative performance-per-watt improvement of the
// adaptive run over the always-high-performance reference.
func (r *DeploymentResult) PPWGain() float64 {
	ref := r.Reference.PPW()
	if ref == 0 {
		return 0
	}
	return r.Adaptive.PPW()/ref - 1
}

// RelPerformance returns adaptive IPC relative to the reference (Table 5's
// "Avg. Performance Relative to High Perf Mode").
func (r *DeploymentResult) RelPerformance() float64 {
	ref := r.Reference.IPC()
	if ref == 0 {
		return 0
	}
	return r.Adaptive.IPC() / ref
}

// Eval computes the paper's prediction metrics for this run.
func (r *DeploymentResult) Eval(win metrics.SLAWindow) metrics.Eval {
	return metrics.Evaluate(r.Pred, r.Truth, win)
}

// EffectiveEval computes the same metrics on the configurations actually
// applied (after guardrail overrides): the system's SLA exposure rather
// than the model's.
func (r *DeploymentResult) EffectiveEval(win metrics.SLAWindow) metrics.Eval {
	return metrics.Evaluate(r.Eff, r.Truth, win)
}

// newDeployRNG seeds the deployment-time telemetry-noise stream.
func newDeployRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ 0x6465706c)) // "depl"
}

// windowTruth aggregates the fixed-mode IPCs over prediction window w and
// applies the SLA label.
func windowTruth(ref *dataset.TraceTelemetry, w, k int, sla dataset.SLA) int {
	hi, lo := 0.0, 0.0
	n := 0
	for i := w * k; i < (w+1)*k && i < ref.Intervals(); i++ {
		// Harmonic aggregation: equal instructions per interval, so
		// aggregate IPC is instructions over summed cycles.
		hi += 1 / ref.HighPerf[i].IPC
		lo += 1 / ref.LowPower[i].IPC
		n++
	}
	if n == 0 {
		return 0
	}
	return sla.Label(float64(n)/hi, float64(n)/lo)
}
