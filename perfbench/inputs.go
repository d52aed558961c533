package main

import (
	"fmt"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/mcu"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

// Input sizes. The training corpus is small enough to simulate on each of a
// run's set-ups; the test suite takes one trace from each of the first
// testTraces benchmarks, so a round of deployments spans memory-bound,
// ILP-heavy and mixed phases.
const (
	trainApps   = 12
	traceInstrs = 300_000
	testTraces  = 8
)

// trainSeed fixes the training corpus, so the controller and the surrogate
// (the firmware and the model under test) are the same in every run, as a
// shipped image is. The run's seed draws what they are deployed on: the
// test suite, the fault plans and the fleet's schedules. Controllers from
// other training seeds differ in size, and so in inference and decode
// cost, which would read as run-to-run noise.
const trainSeed = 1

// inputs is everything the workloads' operations read, built from the run's
// seed and trainSeed: the paper's pipeline up to a trained, calibrated
// controller.
type inputs struct {
	seed int64
	cfg  dataset.Config
	pm   *power.Model
	gr   core.Guardrail

	train    *trace.Corpus
	trainTel []*dataset.TraceTelemetry
	test     *trace.Corpus
	testTel  []*dataset.TraceTelemetry
	ctl      *core.GatingController
}

// setupClock times the layers a set-up calls into.
type setupClock map[string]time.Duration

func (c setupClock) time(layer string, f func() error) error {
	t0 := time.Now()
	err := f()
	c[layer] += time.Since(t0)
	return err
}

// buildInputs generates both corpora, records their fixed-mode telemetry
// and trains the Best RF controller on the 12 Table-4 counters. Every pool,
// here and in the workloads, keeps the repository's default width of 0,
// which resolves to GOMAXPROCS when the pool starts.
func buildInputs(seed int64, clk setupClock) (*inputs, error) {
	in := &inputs{seed: seed, cfg: dataset.DefaultConfig(), pm: power.DefaultModel(), gr: core.DefaultGuardrail()}

	_ = clk.time("corpus", func() error {
		in.train = trace.BuildHDTR(trace.HDTRConfig{
			Apps: trainApps, MeanTracesPerApp: 1, InstrsPerTrace: traceInstrs, Seed: trainSeed,
		})
		spec := trace.BuildSPEC(trace.SPECConfig{
			TracesPerWorkload: 1, InstrsPerTrace: traceInstrs, Seed: seed + 1,
		})
		in.test = &trace.Corpus{Name: spec.Name}
		seen := map[string]bool{}
		for _, tr := range spec.Traces {
			if b := tr.App.Benchmark; !seen[b] && len(in.test.Traces) < testTraces {
				seen[b] = true
				in.test.Traces = append(in.test.Traces, tr)
			}
		}
		return nil
	})

	_ = clk.time("simulate", func() error {
		in.trainTel = dataset.SimulateCorpus(in.train, in.cfg)
		in.testTel = dataset.SimulateCorpus(in.test, in.cfg)
		return nil
	})

	err := clk.time("train", func() error {
		cs := telemetry.NewStandardCounterSet()
		cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
		if err != nil {
			return err
		}
		in.ctl, err = core.BuildBestRF(core.BuildInputs{
			Tel: in.trainTel, Counters: cs, Columns: cols, SLA: dataset.SLA{PSLA: 0.9},
			Interval: in.cfg.Interval, Spec: mcu.DefaultSpec(), Seed: trainSeed,
		})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("training controller: %w", err)
	}
	return in, nil
}

// faultPlan is round r's fault arm, as in paperbench's fault studies:
// bursts of dropped and glitched telemetry plus DRAM-bandwidth derates that
// slow real execution. A fresh plan seed per round makes every round's
// deployments distinct work, so no round can reuse another's results.
func (in *inputs) faultPlan(round int) fault.Plan {
	return fault.Plan{Seed: in.seed*1_000_003 + int64(round), Rules: []fault.Rule{
		{Class: fault.TelemetryDrop, Rate: 0.03, Burst: 4},
		{Class: fault.CounterGlitch, Rate: 0.03, Burst: 4},
		{Class: fault.DRAMDerate, Rate: 0.04, Burst: 6, Factor: 4},
	}}
}

// windows is the number of prediction windows a deployment of test trace
// i runs, and so the length of its decision record.
func (in *inputs) windows(i int) int {
	return in.testTel[i].Intervals() / (in.ctl.Granularity / in.ctl.Interval)
}
