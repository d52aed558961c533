package experiments

import (
	"fmt"
	"io"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/ml"
	"clustergate/internal/ml/forest"
	"clustergate/internal/obs"
	"clustergate/internal/uarch"
)

// AblationRow is one design-choice ablation result (DESIGN.md's list).
type AblationRow struct {
	Label   string
	PPWGain float64
	RSV     float64
	PGOS    float64
}

// Ablations isolates the design choices DESIGN.md calls out, always
// against the Best RF reference:
//
//   - reactive labelling (predict for t instead of t+2);
//   - a single shared model instead of the per-mode pair;
//   - raw counter counts instead of per-cycle normalisation;
//   - fixed 0.5 threshold instead of RSV-calibrated sensitivity.
func Ablations(e *Env) ([]AblationRow, error) {
	defer obs.Start("ablations.matrix").End()
	var out []AblationRow

	record := func(label string, g *core.GatingController) error {
		sum, err := core.EvaluateOnCorpus(e.SimOracle(), g, e.SPEC, e.SPECTel, e.Cfg, e.PM)
		if err != nil {
			return fmt.Errorf("ablation %s: %w", label, err)
		}
		out = append(out, AblationRow{
			Label:   label,
			PPWGain: sum.MeanBenchmarkPPWGain(),
			RSV:     sum.Overall.RSV,
			PGOS:    sum.Overall.Confusion.PGOS(),
		})
		e.logf("ablation %-28s PPW=%.3f RSV=%.4f", label, sum.MeanBenchmarkPPWGain(), sum.Overall.RSV)
		return nil
	}

	// The general Best RF is shared read-only; the variants below copy it.
	ref, err := e.GeneralBestRF()
	if err != nil {
		return nil, err
	}
	if err := record("reference (Best RF)", ref); err != nil {
		return nil, err
	}

	// Single shared model: reuse the high-perf model for both modes.
	shared := *ref
	shared.Name = "best-rf-shared"
	shared.LowPower = ref.HighPerf
	shared.ThresholdLow = shared.ThresholdHigh
	if err := record("single shared model", &shared); err != nil {
		return nil, err
	}

	// Fixed threshold.
	rawIn := e.buildInputs(0.9)
	rawIn.NoCalibration = true
	rawG, err := core.BuildBestRF(rawIn)
	if err != nil {
		return nil, err
	}
	rawG.Name = "best-rf-thr0.5"
	if err := record("fixed 0.5 threshold", rawG); err != nil {
		return nil, err
	}

	return out, nil
}

// ReactiveAblation measures predict-for-t+2 against reacting at t on the
// screening task (the deployment loop physically cannot apply a decision
// before t+2, so the comparison is at the prediction level: how much
// accuracy would a reactive oracle-timing model have, i.e. the headroom
// the two-interval pipeline delay costs).
func ReactiveAblation(e *Env) (predict, react ScreenResult, err error) {
	defer obs.Start("ablations.reactive").End()
	cols := e.PFColumns
	train := e.rfTrainer()

	// Standard t+2 labels.
	lts := e.lowPowerTraces(cols)
	predict, err = e.Screen(train, lts, 0, 0.5)
	if err != nil {
		return
	}

	// Reactive labels: pair the counters of interval t+2 with the truth of
	// interval t+2 itself — i.e. recognise the current interval rather than
	// predict two ahead. BuildLabeled pairs X[t] with truth(t+2), so
	// shifting X forward by two realigns the pairs.
	reactive := dataset.BuildLabeled(e.HDTRTel, e.CS, dataset.BuildOptions{
		Mode: uarch.ModeLowPower, SLA: dataset.SLA{PSLA: 0.9}, Columns: cols,
	})
	for _, lt := range reactive {
		if len(lt.X) > 2 {
			lt.X = lt.X[2:]
			lt.Y = lt.Y[:len(lt.Y)-2]
		}
	}
	react, err = e.Screen(train, reactive, 0, 0.5)
	return
}

// NormalizationAblation compares per-cycle-normalised counters against raw
// counts on the screening task (Section 4.1 reports normalisation improves
// accuracy).
func NormalizationAblation(e *Env) (normalized, raw ScreenResult, err error) {
	defer obs.Start("ablations.normalization").End()
	train := e.rfTrainer()
	normalized, err = e.Screen(train, e.lowPowerTraces(e.PFColumns), 0, 0.5)
	if err != nil {
		return
	}
	rawTraces := dataset.BuildLabeled(e.HDTRTel, e.CS, dataset.BuildOptions{
		Mode: uarch.ModeLowPower, SLA: dataset.SLA{PSLA: 0.9},
		Columns: e.PFColumns, NoNormalize: true,
	})
	raw, err = e.Screen(train, rawTraces, 0, 0.5)
	return
}

// rfTrainer is the Best RF shape as a screening trainer.
func (e *Env) rfTrainer() Trainer {
	return func(tune *ml.Dataset, seed int64) (Scorer, error) {
		return forest.Train(forest.Config{NumTrees: 8, MaxDepth: 8, Seed: seed}, tune)
	}
}

// PrintAblations renders the design-choice ablations.
func PrintAblations(w io.Writer, rows []AblationRow) {
	fmt.Fprintln(w, "Design ablations (deployed on SPEC2017)")
	fmt.Fprintf(w, "  %-30s %-10s %-10s %s\n", "variant", "PPW gain", "RSV", "PGOS")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-30s %8.1f%% %8.2f%% %7.1f%%\n",
			r.Label, 100*r.PPWGain, 100*r.RSV, 100*r.PGOS)
	}
}
