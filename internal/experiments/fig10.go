package experiments

import (
	"fmt"
	"io"
	"sort"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/trace"
)

// Fig10Step is one stage of the blindspot-mitigation ablation.
type Fig10Step struct {
	Label string
	RSV   float64
	PPW   float64
}

// Fig10Ablation reproduces Figure 10, building from the CHARSTAR baseline
// to the paper's Best MLP step by step:
//
//  1. baseline MLP (1 layer, expert counters) trained on SPEC data alone,
//     leave-one-application-out as in the paper's footnote;
//  2. + training-set diversity: the same model trained on HDTR;
//  3. + PF counter selection: HDTR training, PF counters;
//  4. + hyperparameter screening: the 3-layer Best MLP topology.
//
// Every stage applies the same Section 6.3 sensitivity calibration, so the
// ladder isolates the three mitigation techniques (data, counters,
// topology) rather than the calibration itself.
func Fig10Ablation(e *Env) ([]Fig10Step, error) {
	defer obs.Start("fig10.blindspot-ablation").End()
	var steps []Fig10Step

	eval := func(label string, g *core.GatingController) error {
		sum, err := core.EvaluateOnCorpus(e.SimOracle(), g, e.SPEC, e.SPECTel, e.Cfg, e.PM)
		if err != nil {
			return fmt.Errorf("fig10 %s: %w", label, err)
		}
		steps = append(steps, Fig10Step{
			Label: label, RSV: sum.Overall.RSV, PPW: sum.MeanBenchmarkPPWGain(),
		})
		e.logf("fig10 %-34s RSV=%.4f PPW=%.3f", label, sum.Overall.RSV, sum.MeanBenchmarkPPWGain())
		return nil
	}

	base := core.MLPTrainer([]int{10}, 0)

	// Stage 1: baseline topology + expert counters, trained only on SPEC
	// telemetry (the "train on the benchmark suite" anti-pattern), with
	// the paper's leave-one-application-out protocol: every benchmark is
	// evaluated by a model that never saw it.
	s1, err := specOnlyLOO(e, base)
	if err != nil {
		return nil, err
	}
	steps = append(steps, s1)
	e.logf("fig10 %-34s RSV=%.4f PPW=%.3f", s1.Label, s1.RSV, s1.PPW)

	// Stage 2: + HDTR diversity.
	hdtrIn := e.buildInputs(0.9)
	hdtrIn.Columns = e.ExpertColumns
	hdtrIn.GranularityOverride = 20_000
	g2, err := core.BuildController("charstar-hdtr", base, hdtrIn)
	if err != nil {
		return nil, err
	}
	if err := eval("+ HDTR training diversity", g2); err != nil {
		return nil, err
	}

	// Stage 3: + PF counters. Twelve counters push the 10-filter MLP past
	// the 20k budget, so the granularity is re-sized to its own budget.
	pfIn := hdtrIn
	pfIn.Columns = e.PFColumns
	pfIn.GranularityOverride = 0
	g3, err := core.BuildController("charstar-pf", base, pfIn)
	if err != nil {
		return nil, err
	}
	if err := eval("+ PF counter selection", g3); err != nil {
		return nil, err
	}

	// Stage 4: + topology screening (Best MLP shape).
	g4, err := core.BuildController("bestmlp-raw",
		core.MLPTrainer([]int{8, 8, 4}, 0), pfIn)
	if err != nil {
		return nil, err
	}
	if err := eval("+ hyperparameter screening (8/8/4)", g4); err != nil {
		return nil, err
	}
	return steps, nil
}

// specOnlyLOO trains the baseline on SPEC telemetry leaving one benchmark
// out at a time, and averages deployment metrics over the held-out
// benchmarks.
func specOnlyLOO(e *Env, base core.TrainFunc) (Fig10Step, error) {
	benchSet := map[string]bool{}
	for _, tt := range e.SPECTel {
		benchSet[tt.Benchmark] = true
	}
	var benches []string
	for b := range benchSet {
		benches = append(benches, b)
	}
	sort.Strings(benches)

	var rsvSum, ppwSum float64
	folds := 0
	for _, held := range benches {
		in := e.buildInputs(0.9)
		in.Columns = e.ExpertColumns
		in.GranularityOverride = 20_000
		in.GroupByBenchmark = true
		// The paper's SPEC-only baseline has little data per application
		// (single SimPoints); keep one trace per held-in benchmark so the
		// stage reflects that scarcity rather than this corpus's density.
		in.Tel = nil
		seen := map[string]bool{}
		for _, tt := range e.SPECTel {
			if tt.Benchmark != held && !seen[tt.Benchmark] {
				in.Tel = append(in.Tel, tt)
				seen[tt.Benchmark] = true
			}
		}
		g, err := core.BuildController("charstar-spec", base, in)
		if err != nil {
			return Fig10Step{}, err
		}
		sub, subTel := corpusForBenchmark(e, held)
		if len(sub.Traces) == 0 {
			continue
		}
		sum, err := core.EvaluateOnCorpus(e.SimOracle(), g, sub, subTel, e.Cfg, e.PM)
		if err != nil {
			return Fig10Step{}, err
		}
		rsvSum += sum.Overall.RSV
		ppwSum += sum.Overall.PPWGain
		folds++
	}
	if folds == 0 {
		return Fig10Step{}, fmt.Errorf("fig10: no LOO folds")
	}
	return Fig10Step{
		Label: "baseline MLP, SPEC-only training (LOO)",
		RSV:   rsvSum / float64(folds),
		PPW:   ppwSum / float64(folds),
	}, nil
}

// corpusForBenchmark extracts one benchmark's traces plus aligned
// telemetry.
func corpusForBenchmark(e *Env, bench string) (*trace.Corpus, []*dataset.TraceTelemetry) {
	sub := &trace.Corpus{Name: "bench-" + bench}
	var tel []*dataset.TraceTelemetry
	for i, tr := range e.SPEC.Traces {
		if tr.App.Benchmark == bench {
			sub.Traces = append(sub.Traces, tr)
			tel = append(tel, e.SPECTel[i])
		}
	}
	return sub, tel
}

// PrintFig10 renders the ablation ladder.
func PrintFig10(w io.Writer, steps []Fig10Step) {
	fmt.Fprintln(w, "Figure 10: blindspot mitigation ablation")
	prev := -1.0
	for _, s := range steps {
		delta := ""
		if prev >= 0 {
			delta = fmt.Sprintf("  (Δ %+0.2f%%)", 100*(s.RSV-prev))
		}
		fmt.Fprintf(w, "  %-40s RSV %6.2f%%%s\n", s.Label, 100*s.RSV, delta)
		prev = s.RSV
	}
}
