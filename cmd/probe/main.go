// Command probe trains one adaptation model at default experiment scale
// and deploys it on the held-out test suite, printing overall metrics and
// the worst benchmarks — the fast focused loop for studying a single
// model configuration.
//
// Usage:
//
//	probe -model best-rf
//	probe -model charstar -cols table4
//	probe -model best-rf -gran 10000      # hypothetical finer granularity
package main

import (
	"flag"
	"fmt"
	"os"

	"clustergate/internal/core"
	"clustergate/internal/experiments"
	"clustergate/internal/telemetry"
)

func main() {
	cols := flag.String("cols", "pf", "counter set: pf (PF-selected) or table4 (paper's named set)")
	model := flag.String("model", "best-rf", "best-rf | best-mlp | charstar")
	gran := flag.Int("gran", 0, "granularity override in instructions (0 = budget-derived)")
	epochs := flag.Int("epochs", 0, "MLP epochs override")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	env, err := experiments.NewEnvLogged(experiments.DefaultScale(), ".cache", *seed, os.Stderr)
	fatalIf(err)

	in := experiments.BuildInputsForEnv(env, 0.9)
	if *gran > 0 {
		in.GranularityOverride = *gran
		in.SkipBudgetCheck = true
	}
	if *cols == "table4" {
		c, err := core.ColumnsByName(env.CS, telemetry.Table4Names())
		fatalIf(err)
		in.Columns = c
	}

	var g *core.GatingController
	switch *model {
	case "best-rf":
		g, err = core.BuildBestRF(in)
	case "best-mlp":
		g, err = core.BuildController("best-mlp", core.MLPTrainer([]int{8, 8, 4}, *epochs), in)
	case "charstar":
		g, err = core.BuildCHARSTAR(in)
	default:
		fatalIf(fmt.Errorf("unknown model %q", *model))
	}
	fatalIf(err)

	sum, err := core.EvaluateOnCorpus(core.ExactOracle{}, g, env.SPEC, env.SPECTel, env.Cfg, env.PM)
	fatalIf(err)
	fmt.Printf("%s cols=%s thr=%.2f/%.2f PPW=%.3f RSV=%.4f PGOS=%.3f resid=%.3f\n",
		g.Name, *cols, g.ThresholdHigh, g.ThresholdLow,
		sum.MeanBenchmarkPPWGain(), sum.Overall.RSV, sum.Overall.Confusion.PGOS(), sum.Overall.Residency)
	for _, b := range sum.PerBenchmark {
		if b.RSV > 0.02 {
			fmt.Printf("  %-20s RSV=%.3f PPW=%.3f PGOS=%.3f\n",
				b.Name, b.RSV, b.PPWGain, b.Confusion.PGOS())
		}
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
}
