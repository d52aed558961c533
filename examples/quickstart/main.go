// Quickstart: the end-to-end predictive cluster gating flow on a small
// corpus — generate workloads, simulate telemetry in both cluster modes,
// train the paper's Best RF adaptation model pair, calibrate sensitivity,
// and deploy it closed-loop on held-out applications.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

func main() {
	// 1. A small high-diversity training corpus and a held-out test set.
	fmt.Println("== building corpora ==")
	train := trace.BuildHDTR(trace.HDTRConfig{
		Apps: 96, MeanTracesPerApp: 2, InstrsPerTrace: 350_000, Seed: 1,
	})
	test := trace.BuildSPEC(trace.SPECConfig{
		TracesPerWorkload: 1, InstrsPerTrace: 450_000, Seed: 2,
	})
	fmt.Printf("training: %d applications, %d traces\n", len(train.Apps), len(train.Traces))
	fmt.Printf("test:     %d workloads, %d traces (all unseen)\n", len(test.Apps), len(test.Traces))

	// 2. Simulate every trace in both cluster configurations, recording
	// telemetry every 10k instructions (Section 4.1).
	fmt.Println("\n== simulating fixed-mode telemetry ==")
	cfg := dataset.DefaultConfig()
	trainTel := dataset.SimulateCorpus(train, cfg)
	testTel := dataset.SimulateCorpus(test, cfg)
	sla := dataset.SLA{PSLA: 0.9}
	fmt.Printf("ideal low-power residency on the test set: %.1f%%\n",
		100*dataset.OracleResidency(testTel, sla))

	// 3. Train the paper's Best RF (8 trees × depth 8) per-mode model pair
	// on the 12 Table-4 counters, calibrate thresholds, size granularity
	// to the microcontroller budget.
	fmt.Println("\n== training Best RF firmware ==")
	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		log.Fatal(err)
	}
	controller, err := core.BuildBestRF(core.BuildInputs{
		Tel:      trainTel,
		Counters: cs,
		Columns:  cols,
		SLA:      sla,
		Interval: cfg.Interval,
		Spec:     mcu.DefaultSpec(),
		Seed:     7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s — %d ops/prediction, %dk-instruction granularity, thresholds %.2f/%.2f\n",
		controller.Name, controller.OpsPerPrediction, controller.Granularity/1000,
		controller.ThresholdHigh, controller.ThresholdLow)

	// 4. Deploy closed-loop on the held-out suite.
	fmt.Println("\n== deploying on unseen applications ==")
	sum, err := core.EvaluateOnCorpus(core.ExactOracle{}, controller, test, testTel, cfg, power.DefaultModel())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PPW gain:            %+.1f%% (mean across benchmarks)\n", 100*sum.MeanBenchmarkPPWGain())
	fmt.Printf("SLA violations:      %.2f%% of windows\n", 100*sum.Overall.RSV)
	fmt.Printf("gating opportunities: %.1f%% seized\n", 100*sum.Overall.Confusion.PGOS())
	fmt.Printf("low-power residency: %.1f%%\n", 100*sum.Overall.Residency)
	fmt.Printf("performance vs always-high: %.1f%%\n", 100*sum.Overall.RelPerf)

	fmt.Println("\nworst benchmarks by SLA violations:")
	printed := 0
	for _, b := range sum.PerBenchmark {
		if b.RSV > 0 && printed < 5 {
			fmt.Printf("  %-20s RSV %.2f%%, PPW %+.1f%%\n", b.Name, 100*b.RSV, 100*b.PPWGain)
			printed++
		}
	}
	if printed == 0 {
		fmt.Println("  none — no benchmark violated its SLA windows")
	}
}
