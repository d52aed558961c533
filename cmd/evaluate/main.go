// Command evaluate trains a controller on an HDTR corpus and deploys it
// closed-loop on the SPEC-like test suite, printing the paper's deployment
// metrics overall and per benchmark.
//
// Usage:
//
//	evaluate -model best-rf -apps 200
//	evaluate -model charstar -per-benchmark
package main

import (
	"flag"
	"fmt"
	"os"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

func main() {
	model := flag.String("model", "best-rf", "best-rf, best-mlp, charstar, srch-40k, or srch-coarse")
	apps := flag.Int("apps", 120, "training corpus applications")
	psla := flag.Float64("psla", 0.9, "SLA performance threshold")
	perBench := flag.Bool("per-benchmark", false, "print per-benchmark breakdown")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	train := trace.BuildHDTR(trace.HDTRConfig{Apps: *apps, InstrsPerTrace: 350_000, Seed: *seed})
	test := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 2, InstrsPerTrace: 450_000, Seed: *seed + 1})
	cfg := dataset.DefaultConfig()
	fmt.Fprintf(os.Stderr, "simulating %d training + %d test traces...\n",
		len(train.Traces), len(test.Traces))
	trainTel := dataset.SimulateCorpus(train, cfg)
	testTel := dataset.SimulateCorpus(test, cfg)

	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		fatal(err)
	}
	in := core.BuildInputs{
		Tel: trainTel, Counters: cs, Columns: cols,
		SLA: dataset.SLA{PSLA: *psla}, Interval: cfg.Interval,
		Spec: mcu.DefaultSpec(), Seed: *seed,
	}

	var g *core.GatingController
	switch *model {
	case "best-rf":
		g, err = core.BuildBestRF(in)
	case "best-mlp":
		g, err = core.BuildBestMLP(in)
	case "charstar":
		g, err = core.BuildCHARSTAR(in)
	case "srch-40k":
		g, err = core.BuildSRCH(in, 40_000)
	case "srch-coarse":
		g, err = core.BuildSRCH(in, core.SRCHCoarseGranularity)
	default:
		fatal(fmt.Errorf("unknown model %q", *model))
	}
	if err != nil {
		fatal(err)
	}

	sum, err := core.EvaluateOnCorpus(core.ExactOracle{}, g, test, testTel, cfg, power.DefaultModel())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s at %dk-instruction granularity on %d traces:\n",
		g.Name, g.Granularity/1000, sum.Overall.Traces)
	fmt.Printf("  PPW gain:   %+.1f%% (mean across benchmarks)\n", 100*sum.MeanBenchmarkPPWGain())
	fmt.Printf("  RSV:        %.2f%%\n", 100*sum.Overall.RSV)
	fmt.Printf("  PGOS:       %.1f%%\n", 100*sum.Overall.Confusion.PGOS())
	fmt.Printf("  residency:  %.1f%%\n", 100*sum.Overall.Residency)
	fmt.Printf("  perf:       %.1f%% of always-high\n", 100*sum.Overall.RelPerf)

	if *perBench {
		fmt.Printf("\n  %-20s %-10s %-8s %-8s\n", "benchmark", "PPW", "RSV", "PGOS")
		for _, b := range sum.PerBenchmark {
			fmt.Printf("  %-20s %+8.1f%% %6.2f%% %6.1f%%\n",
				b.Name, 100*b.PPWGain, 100*b.RSV, 100*b.Confusion.PGOS())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evaluate:", err)
	os.Exit(1)
}
