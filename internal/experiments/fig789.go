package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/obs"
)

// Fig7Row is one benchmark's ideal low-power residency.
type Fig7Row struct {
	Benchmark string
	Residency float64
}

// Fig7Oracle reproduces Figure 7: the fraction of runtime each SPEC
// benchmark would ideally spend in low-power mode under the 90% SLA
// (paper: 45.7% on average).
func Fig7Oracle(e *Env) ([]Fig7Row, float64) {
	defer obs.Start("fig7.oracle-residency").End()
	sla := dataset.SLA{PSLA: 0.9}
	groups := dataset.ByBenchmark(e.SPECTel)
	var rows []Fig7Row
	for name, tel := range groups {
		rows = append(rows, Fig7Row{Benchmark: name, Residency: dataset.OracleResidency(tel, sla)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Benchmark < rows[j].Benchmark })
	// Sum in benchmark order: a float sum in map order differs in its
	// last bits from run to run.
	var sum float64
	for _, r := range rows {
		sum += r.Residency
	}
	return rows, sum / float64(len(rows))
}

// PrintFig7 renders the residency profile.
func PrintFig7(w io.Writer, rows []Fig7Row, mean float64) {
	fmt.Fprintln(w, "Figure 7: ideal low-power residency (P_SLA = 0.90)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %5.1f%%  %s\n", r.Benchmark, 100*r.Residency,
			strings.Repeat("#", int(r.Residency*40)))
	}
	fmt.Fprintf(w, "  %-20s %5.1f%%\n", "mean", 100*mean)
}

// Fig8Row is one adaptation model's SPEC2017 deployment outcome.
type Fig8Row struct {
	Model   string
	Summary *core.Summary
	// IntPPW and FpPPW split the mean benchmark PPW gain by suite.
	IntPPW, FpPPW float64
}

// BuildFig8Controllers trains the four model families of Section 7 plus
// the coarse SRCH variant, all on HDTR telemetry.
func BuildFig8Controllers(e *Env) ([]*core.GatingController, error) {
	defer obs.Start("fig8.build-controllers").End()
	in := e.buildInputs(0.9)
	var out []*core.GatingController

	srchIn := in
	top15, err := e.TopCounters(15)
	if err != nil {
		return nil, err
	}
	srchIn.Columns = top15
	coarse, err := core.BuildSRCH(srchIn, core.SRCHCoarseGranularity)
	if err != nil {
		return nil, fmt.Errorf("srch-coarse: %w", err)
	}
	coarse.Name = "srch-coarse"
	out = append(out, coarse)

	fine, err := core.BuildSRCH(srchIn, 40_000)
	if err != nil {
		return nil, fmt.Errorf("srch-40k: %w", err)
	}
	out = append(out, fine)

	charstar, err := core.BuildCHARSTAR(in)
	if err != nil {
		return nil, fmt.Errorf("charstar: %w", err)
	}
	out = append(out, charstar)

	bestMLP, err := core.BuildBestMLP(in)
	if err != nil {
		return nil, fmt.Errorf("best-mlp: %w", err)
	}
	out = append(out, bestMLP)

	bestRF, err := e.GeneralBestRF()
	if err != nil {
		return nil, fmt.Errorf("best-rf: %w", err)
	}
	out = append(out, bestRF)
	return out, nil
}

// buildInputs assembles the standard training inputs at a given SLA.
func (e *Env) buildInputs(psla float64) core.BuildInputs {
	return core.BuildInputs{
		Tel:      e.HDTRTel,
		Counters: e.CS,
		Columns:  e.PFColumns,
		SLA:      dataset.SLA{PSLA: psla},
		Interval: e.Cfg.Interval,
		Spec:     e.Spec,
		Seed:     e.Seed + 77,
	}
}

// Fig8Evaluate deploys every controller on the SPEC test corpus.
func Fig8Evaluate(e *Env, gs []*core.GatingController) ([]Fig8Row, error) {
	defer obs.Start("fig8.evaluate").End()
	var out []Fig8Row
	for _, g := range gs {
		sum, err := core.EvaluateOnCorpus(e.SimOracle(), g, e.SPEC, e.SPECTel, e.Cfg, e.PM)
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", g.Name, err)
		}
		row := Fig8Row{Model: g.Name, Summary: sum}
		nInt, nFp := 0, 0
		for _, b := range sum.PerBenchmark {
			if isIntBenchmark(b.Name) {
				row.IntPPW += b.PPWGain
				nInt++
			} else {
				row.FpPPW += b.PPWGain
				nFp++
			}
		}
		if nInt > 0 {
			row.IntPPW /= float64(nInt)
		}
		if nFp > 0 {
			row.FpPPW /= float64(nFp)
		}
		out = append(out, row)
		e.logf("fig8 %-12s PPW=%.3f RSV=%.4f PGOS=%.3f", g.Name,
			sum.MeanBenchmarkPPWGain(), sum.Overall.RSV, sum.Overall.Confusion.PGOS())
	}
	return out, nil
}

// isIntBenchmark distinguishes SPECint from SPECfp by benchmark number.
func isIntBenchmark(name string) bool {
	switch {
	case strings.HasPrefix(name, "600."), strings.HasPrefix(name, "602."),
		strings.HasPrefix(name, "605."), strings.HasPrefix(name, "620."),
		strings.HasPrefix(name, "623."), strings.HasPrefix(name, "625."),
		strings.HasPrefix(name, "631."), strings.HasPrefix(name, "641."),
		strings.HasPrefix(name, "648."), strings.HasPrefix(name, "657."):
		return true
	}
	return false
}

// PrintFig8 renders the model comparison.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Figure 8: PPW gain and RSV by adaptation model (SPEC2017)")
	fmt.Fprintf(w, "  %-14s %-10s %-10s %-10s %-10s %-8s %-8s\n",
		"model", "PPW mean", "PPW int", "PPW fp", "RSV", "PGOS", "resid")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %8.1f%% %8.1f%% %8.1f%% %8.2f%% %7.1f%% %7.1f%%\n",
			r.Model, 100*r.Summary.MeanBenchmarkPPWGain(), 100*r.IntPPW, 100*r.FpPPW,
			100*r.Summary.Overall.RSV, 100*r.Summary.Overall.Confusion.PGOS(),
			100*r.Summary.Overall.Residency)
	}
}

// Fig9Row is one benchmark's CHARSTAR-vs-BestRF comparison.
type Fig9Row struct {
	Benchmark                string
	CharstarPPW, CharstarRSV float64
	BestRFPPW, BestRFRSV     float64
}

// Fig9PerBenchmark reproduces Figure 9 from the Figure 8 summaries.
func Fig9PerBenchmark(charstar, bestRF *core.Summary) []Fig9Row {
	rf := map[string]*core.BenchResult{}
	for _, b := range bestRF.PerBenchmark {
		rf[b.Name] = b
	}
	var out []Fig9Row
	for _, b := range charstar.PerBenchmark {
		row := Fig9Row{Benchmark: b.Name, CharstarPPW: b.PPWGain, CharstarRSV: b.RSV}
		if r := rf[b.Name]; r != nil {
			row.BestRFPPW = r.PPWGain
			row.BestRFRSV = r.RSV
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Benchmark < out[j].Benchmark })
	return out
}

// PrintFig9 renders the per-benchmark breakdown.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9: per-benchmark CHARSTAR vs Best RF")
	fmt.Fprintf(w, "  %-20s %-22s %-22s\n", "benchmark", "CHARSTAR (PPW, RSV)", "Best RF (PPW, RSV)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %7.1f%% %8.2f%%      %7.1f%% %8.2f%%\n",
			r.Benchmark, 100*r.CharstarPPW, 100*r.CharstarRSV, 100*r.BestRFPPW, 100*r.BestRFRSV)
	}
}

// GeneralBestRF returns the general-purpose Best RF controller: Figure 8's
// best-rf row, and the controller Table 6 and the guardrail, fault,
// rollout, control-plane and surrogate studies deploy. The first call
// trains it and every later call returns the same controller, which
// callers must not modify.
func (e *Env) GeneralBestRF() (*core.GatingController, error) {
	e.generalRFOnce.Do(func() {
		defer obs.Start("build.general-best-rf").End()
		e.generalRF, e.generalRFErr = core.BuildBestRF(e.buildInputs(0.9))
	})
	return e.generalRF, e.generalRFErr
}
