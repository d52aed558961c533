package experiments

import (
	"fmt"
	"io"
	"sort"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/trace"
)

// Table5Row is one SLA target's post-silicon retune outcome.
type Table5Row struct {
	PSLA    float64
	RSV     float64
	PPWGain float64
	RelPerf float64
}

// Table5SLARetune reproduces Table 5: the same silicon retargeted to three
// SLA guarantees by retraining Best RF's firmware. The paper's shape:
// loosening P_SLA from 0.90 to 0.70 grows PPW (21.9% → 31.4%) while average
// performance falls only slightly (98.2% → 93.4%) and RSV stays tiny.
func Table5SLARetune(e *Env) ([]Table5Row, error) {
	defer obs.Start("table5.sla-retune").End()
	targets := []float64{0.90, 0.80, 0.70}
	out, err := parallel.Map(e.Cfg.Workers, len(targets), func(i int) (Table5Row, error) {
		psla := targets[i]
		in := e.buildInputs(psla)
		g, err := core.RetrainSLA(in, psla)
		if err != nil {
			return Table5Row{}, fmt.Errorf("table5 P_SLA=%.2f: %w", psla, err)
		}
		sum, err := core.EvaluateOnCorpus(e.SimOracle(), g, e.SPEC, e.SPECTel, e.Cfg, e.PM)
		if err != nil {
			return Table5Row{}, err
		}
		return Table5Row{
			PSLA:    psla,
			RSV:     sum.Overall.RSV,
			PPWGain: sum.MeanBenchmarkPPWGain(),
			RelPerf: sum.Overall.RelPerf,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, r := range out {
		e.logf("table5 P_SLA=%.2f PPW=%.3f RSV=%.4f rel=%.3f",
			r.PSLA, r.PPWGain, r.RSV, r.RelPerf)
	}
	return out, nil
}

// PrintTable5 renders the SLA retune table.
func PrintTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: post-silicon SLA retuning (Best RF)")
	fmt.Fprintf(w, "  %-8s %-10s %-12s %s\n", "P_SLA", "RSV", "PPW gain", "perf vs high")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-8.2f %8.2f%% %10.1f%% %10.1f%%\n",
			r.PSLA, 100*r.RSV, 100*r.PPWGain, 100*r.RelPerf)
	}
}

// Table6Row is one application's app-specific retraining outcome.
type Table6Row struct {
	Benchmark   string
	GeneralPPW  float64
	SpecificPPW float64
	GeneralRSV  float64
	SpecificRSV float64
}

// Delta returns the PPW improvement from app-specific training.
func (r Table6Row) Delta() float64 { return r.SpecificPPW - r.GeneralPPW }

// Table6AppSpecific reproduces Table 6: for benchmarks with at least
// minWorkloads workloads where the general Best RF leaves headroom
// (PGOS < 95%), retrain with grafted application-specific trees and
// evaluate leave-one-workload-out. The paper's shape: PPW improves for
// most (8 of 11) applications, by up to ~8.5%.
func Table6AppSpecific(e *Env, general *core.GatingController, generalSum *core.Summary) ([]Table6Row, error) {
	defer obs.Start("table6.app-specific").End()
	const minWorkloads = 5

	// Headroom screen: per-benchmark PGOS of the general controller.
	pgosByBench := map[string]float64{}
	for _, b := range generalSum.PerBenchmark {
		pgosByBench[b.Name] = b.Confusion.PGOS()
	}
	counts := trace.SPECWorkloadCounts()

	byBench := dataset.ByBenchmark(e.SPECTel)
	var benches []string
	for name := range byBench {
		if counts[name] >= minWorkloads && pgosByBench[name] < 0.95 {
			benches = append(benches, name)
		}
	}
	sort.Strings(benches)

	// Benchmarks are independent retraining problems, so they fan out;
	// within a benchmark the leave-one-workload-out folds stay serial
	// (their sums accumulate in workload order). A nil row marks a
	// benchmark with no usable fold.
	rows, err := parallel.Map(e.Cfg.Workers, len(benches), func(bi int) (*Table6Row, error) {
		bench := benches[bi]
		tel := byBench[bench]
		// Group telemetry and traces by workload for leave-one-out.
		byWL := map[string][]*dataset.TraceTelemetry{}
		for _, tt := range tel {
			byWL[tt.Workload] = append(byWL[tt.Workload], tt)
		}
		var wls []string
		for wl := range byWL {
			wls = append(wls, wl)
		}
		sort.Strings(wls)

		row := &Table6Row{Benchmark: bench}
		folds := 0
		for _, held := range wls {
			// Train app-specific trees on the other workloads.
			var trainTel []*dataset.TraceTelemetry
			for _, wl := range wls {
				if wl != held {
					trainTel = append(trainTel, byWL[wl]...)
				}
			}
			if len(trainTel) == 0 {
				continue
			}
			in := e.buildInputs(0.9)
			g, err := core.BuildAppSpecificRF(in, trainTel, bench)
			if err != nil {
				return nil, fmt.Errorf("table6 %s: %w", bench, err)
			}

			// Evaluate both controllers on the held-out workload's traces.
			sub, subTel := corpusForWorkload(e, held)
			if len(sub.Traces) == 0 {
				continue
			}
			spec, err := core.EvaluateOnCorpus(e.SimOracle(), g, sub, subTel, e.Cfg, e.PM)
			if err != nil {
				return nil, err
			}
			gen, err := core.EvaluateOnCorpus(e.SimOracle(), general, sub, subTel, e.Cfg, e.PM)
			if err != nil {
				return nil, err
			}
			row.SpecificPPW += spec.Overall.PPWGain
			row.SpecificRSV += spec.Overall.RSV
			row.GeneralPPW += gen.Overall.PPWGain
			row.GeneralRSV += gen.Overall.RSV
			folds++
		}
		if folds == 0 {
			return nil, nil
		}
		row.SpecificPPW /= float64(folds)
		row.SpecificRSV /= float64(folds)
		row.GeneralPPW /= float64(folds)
		row.GeneralRSV /= float64(folds)
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Table6Row
	for _, row := range rows {
		if row == nil {
			continue
		}
		out = append(out, *row)
		e.logf("table6 %-20s general=%.3f specific=%.3f (Δ%+.3f)",
			row.Benchmark, row.GeneralPPW, row.SpecificPPW, row.Delta())
	}
	// Sort by improvement, as the paper's table does.
	sort.Slice(out, func(i, j int) bool { return out[i].Delta() > out[j].Delta() })
	return out, nil
}

// corpusForWorkload extracts one workload's traces plus aligned telemetry.
func corpusForWorkload(e *Env, workload string) (*trace.Corpus, []*dataset.TraceTelemetry) {
	sub := &trace.Corpus{Name: "wl-" + workload}
	var tel []*dataset.TraceTelemetry
	for i, tr := range e.SPEC.Traces {
		if tr.Workload == workload {
			sub.Traces = append(sub.Traces, tr)
			tel = append(tel, e.SPECTel[i])
		}
	}
	return sub, tel
}

// PrintTable6 renders the app-specific retraining table.
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "Table 6: application-specific retraining (leave-one-workload-out)")
	fmt.Fprintf(w, "  %-20s %-12s %-14s %-8s %-12s %s\n",
		"benchmark", "general PPW", "specific PPW", "Δ", "general RSV", "specific RSV")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-20s %10.1f%% %12.1f%% %+6.1f%% %10.2f%% %10.2f%%\n",
			r.Benchmark, 100*r.GeneralPPW, 100*r.SpecificPPW, 100*r.Delta(),
			100*r.GeneralRSV, 100*r.SpecificRSV)
	}
	improved := 0
	for _, r := range rows {
		if r.Delta() > 0 {
			improved++
		}
	}
	fmt.Fprintf(w, "  improved: %d of %d applications\n", improved, len(rows))
}
