// Package metrics implements the paper's evaluation metrics (Section 4.2):
// the prediction confusion categories, the Percentage of Gating
// Opportunities Seized (PGOS, Eq. 1), and the Rate of SLA Violations (RSV,
// Eqs. 2–4), which detects statistical blindspots as windows of systematic
// false-positive gating decisions.
package metrics

import (
	"fmt"
	"math"
)

// Confusion tallies predictions by correctness and predicted configuration
// (Section 4.2's table). Positive (1) means "gate Cluster 2".
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction/ground-truth pair.
func (c *Confusion) Add(pred, truth int) {
	switch {
	case pred == 1 && truth == 1:
		c.TP++
	case pred == 1 && truth == 0:
		c.FP++
	case pred == 0 && truth == 0:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of recorded predictions.
func (c *Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// PGOS returns the percentage of gating opportunities seized (Eq. 1): the
// recall of low-power predictions. NaN-free: 0 when no opportunities exist.
func (c *Confusion) PGOS() float64 {
	pos := c.TP + c.FN
	if pos == 0 {
		return 0
	}
	return float64(c.TP) / float64(pos)
}

// FPR returns the false-positive rate: the fraction of high-performance
// intervals incorrectly gated, the raw material of SLA violations.
func (c *Confusion) FPR() float64 {
	neg := c.FP + c.TN
	if neg == 0 {
		return 0
	}
	return float64(c.FP) / float64(neg)
}

// Accuracy returns overall prediction accuracy.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// String summarises the confusion for reports.
func (c *Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d PGOS=%.2f%% FPR=%.2f%%",
		c.TP, c.FP, c.TN, c.FN, 100*c.PGOS(), 100*c.FPR())
}

// SLAWindow carries the parameters defining a violation window (Section
// 3.1 / 4.2): performance threshold P_SLA over duration T_SLA, evaluated
// as W consecutive predictions.
type SLAWindow struct {
	// W is the number of predictions per measurement window:
	// W = R × T_SLA × (1 prediction / L instructions). The paper's example:
	// 16G instr/s × 1 ms ÷ 10k instr/pred = 1,600 predictions.
	W int
}

// StandardWindow computes W from peak throughput (instructions/second),
// the SLA measurement duration in seconds, and the prediction interval in
// instructions.
func StandardWindow(peakIPS float64, tSLA float64, predInterval int) SLAWindow {
	w := int(peakIPS * tSLA / float64(predInterval))
	if w < 1 {
		w = 1
	}
	return SLAWindow{W: w}
}

// WindowTally folds a prediction/truth pair into fixed SLA windows of w
// predictions and counts violations. Windows never straddle traces: the
// trace is cut into consecutive windows of w predictions, every full
// window is judged, and the trailing partial window (when len is not a
// multiple of w) is judged on its own length, so every prediction
// contributes to exactly one window. A window is violated when more than
// half of its predictions are false-positive gates (Eqs. 2–3).
//
// This is the single accounting shared by RSV, the fleet soak health
// fold, and the experiment layer's effective-configuration corpus
// accounting; keeping them on one helper is what makes a fleet gate's
// SLA rate comparable to the corpus RSV it is tuned against.
func WindowTally(pred, truth []int, w int) (windows, violations int) {
	if w <= 0 {
		w = 1
	}
	for start := 0; start < len(pred); start += w {
		end := start + w
		if end > len(pred) {
			end = len(pred)
		}
		fp := 0
		for i := start; i < end; i++ {
			if pred[i] == 1 && truth[i] == 0 {
				fp++
			}
		}
		windows++
		if float64(fp)/float64(end-start) > 0.5 {
			violations++
		}
	}
	return windows, violations
}

// RSV computes the Rate of SLA Violations over a prediction trace: the
// violating fraction of the trace's fixed windows (Eq. 4), with window
// judgment per WindowTally. The window slides by its own width so each
// sample contributes to one window, the "complete set of samples spanning
// a trace" of Section 4.2.
func RSV(pred, truth []int, win SLAWindow) float64 {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("metrics: RSV length mismatch %d vs %d", len(pred), len(truth)))
	}
	if len(pred) == 0 {
		return 0
	}
	windows, violations := WindowTally(pred, truth, win.W)
	return float64(violations) / float64(windows)
}

// Eval bundles the per-trace metrics the experiments report.
type Eval struct {
	Confusion Confusion
	RSV       float64
}

// Evaluate scores a prediction sequence against ground truth.
func Evaluate(pred, truth []int, win SLAWindow) Eval {
	var e Eval
	for i := range pred {
		e.Confusion.Add(pred[i], truth[i])
	}
	e.RSV = RSV(pred, truth, win)
	return e
}

// Quantile reads the q-quantile from an ascending-sorted slice: the
// element at rank ceil(q·n), clamped to the slice; 0 when it is empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// MeanStd returns the mean and population standard deviation of a metric
// across folds, the summary Figures 4–6 plot.
func MeanStd(values []float64) (mean, std float64) {
	if len(values) == 0 {
		return 0, 0
	}
	for _, v := range values {
		mean += v
	}
	mean /= float64(len(values))
	for _, v := range values {
		d := v - mean
		std += d * d
	}
	std /= float64(len(values))
	return mean, math.Sqrt(std)
}
