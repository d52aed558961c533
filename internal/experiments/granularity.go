package experiments

import (
	"fmt"
	"io"

	"clustergate/internal/core"
	"clustergate/internal/obs"
)

// GranularityPoint is one adaptation interval of the granularity sweep.
type GranularityPoint struct {
	Granularity int
	PPW         float64
	RSV         float64
	Residency   float64
	FitsBudget  bool
}

// GranularitySweep deploys Best-RF-shaped controllers across adaptation
// intervals from 10k to 100k instructions. The paper (with the literature
// it cites) holds that sub-100k adaptation captures the bulk of gating
// opportunity and that the finest supported granularity maximises PPW;
// intervals below the 40k budget line assume CHARSTAR-style dedicated
// inference hardware and are marked as not budget-feasible.
func GranularitySweep(e *Env) ([]GranularityPoint, error) {
	defer obs.Start("granularity.sweep").End()
	var out []GranularityPoint
	for _, g := range []int{10_000, 20_000, 40_000, 60_000, 100_000} {
		in := e.buildInputs(0.9)
		in.GranularityOverride = g
		in.SkipBudgetCheck = true
		ctl, err := core.BuildBestRF(in)
		if err != nil {
			return nil, fmt.Errorf("granularity %d: %w", g, err)
		}
		sum, err := core.EvaluateOnCorpus(e.SimOracle(), ctl, e.SPEC, e.SPECTel, e.Cfg, e.PM)
		if err != nil {
			return nil, err
		}
		out = append(out, GranularityPoint{
			Granularity: g,
			PPW:         sum.MeanBenchmarkPPWGain(),
			RSV:         sum.Overall.RSV,
			Residency:   sum.Overall.Residency,
			FitsBudget:  ctl.OpsPerPrediction <= e.Spec.OpsBudget(g),
		})
		e.logf("granularity %dk PPW=%.3f RSV=%.4f", g/1000, sum.MeanBenchmarkPPWGain(), sum.Overall.RSV)
	}
	return out, nil
}

// PrintGranularity renders the sweep.
func PrintGranularity(w io.Writer, pts []GranularityPoint) {
	fmt.Fprintln(w, "Granularity sweep (Best RF shape; * fits the MCU budget)")
	fmt.Fprintf(w, "  %-12s %-8s %-10s %-10s %s\n", "interval", "budget", "PPW gain", "RSV", "residency")
	for _, p := range pts {
		mark := " "
		if p.FitsBudget {
			mark = "*"
		}
		fmt.Fprintf(w, "  %-12d %-8s %+8.1f%% %8.2f%% %8.1f%%\n",
			p.Granularity, mark, 100*p.PPW, 100*p.RSV, 100*p.Residency)
	}
}
