// Appspecific: the paper's optimization-as-a-service scenario (Section
// 7.3, Table 6). A datacenter customer runs the same application across
// thousands of machines; telemetry traced from initial executions retrains
// the adaptation model — grafting application-specific decision trees onto
// the general high-diversity forest — and the updated firmware boosts PPW
// on future runs with different inputs.
//
// Run with:
//
//	go run ./examples/appspecific
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
	const target = "649.fotonik3d_s" // the paper's biggest winner (+8.5%)

	train := trace.BuildHDTR(trace.HDTRConfig{
		Apps: 96, MeanTracesPerApp: 2, InstrsPerTrace: 350_000, Seed: 5,
	})
	test := trace.BuildSPEC(trace.SPECConfig{
		TracesPerWorkload: 2, InstrsPerTrace: 450_000, Seed: 6,
	})
	cfg := dataset.DefaultConfig()
	trainTel := dataset.SimulateCorpus(train, cfg)
	testTel := dataset.SimulateCorpus(test, cfg)

	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		log.Fatal(err)
	}
	in := core.BuildInputs{
		Tel: trainTel, Counters: cs, Columns: cols,
		SLA: dataset.SLA{PSLA: 0.9}, Interval: cfg.Interval,
		Spec: mcu.DefaultSpec(), Seed: 7,
	}
	pm := power.DefaultModel()

	// The general-purpose firmware every chip ships with.
	general, err := core.BuildBestRF(in)
	if err != nil {
		log.Fatal(err)
	}

	// The customer traces the target application on some inputs; the held
	// workload stands in for future runs on data the trainer never saw.
	groups := dataset.ByBenchmark(testTel)
	appTel := groups[target]
	if len(appTel) < 2 {
		log.Fatalf("need ≥2 workloads of %s", target)
	}
	heldWorkload := appTel[len(appTel)-1].Workload
	var siteTraces []*dataset.TraceTelemetry
	for _, tt := range appTel {
		if tt.Workload != heldWorkload {
			siteTraces = append(siteTraces, tt)
		}
	}
	fmt.Printf("retraining on %d on-site traces of %s; evaluating on held-out workload %s\n",
		len(siteTraces), target, heldWorkload)

	specific, err := core.BuildAppSpecificRF(in, siteTraces, target)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate both firmwares on the held-out workload only.
	sub := &trace.Corpus{Name: "held"}
	var subTel []*dataset.TraceTelemetry
	for i, tr := range test.Traces {
		if tr.Workload == heldWorkload {
			sub.Traces = append(sub.Traces, tr)
			subTel = append(subTel, testTel[i])
		}
	}

	for _, m := range []struct {
		label string
		g     *core.GatingController
	}{
		{"general firmware", general},
		{"app-specific firmware", specific},
	} {
		sum, err := core.EvaluateOnCorpus(core.ExactOracle{}, m.g, sub, subTel, cfg, pm)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s PPW %+6.1f%%  RSV %5.2f%%  PGOS %5.1f%%\n",
			m.label, 100*sum.Overall.PPWGain, 100*sum.Overall.RSV,
			100*sum.Overall.Confusion.PGOS())
	}
	fmt.Println("\nThe grafted forest keeps half its trees trained on the")
	fmt.Println("high-diversity corpus, which the paper found necessary to")
	fmt.Println("keep SLA violations low while specialising.")
}
