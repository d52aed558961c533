package experiments

import (
	"fmt"
	"io"
	"sort"

	"clustergate/internal/core"
	"clustergate/internal/obs"
)

// GuardrailResult compares a controller deployed bare against the same
// controller under the fail-safe guardrail (Section 3.1 reserves one for
// the final design; this experiment quantifies what it would cost).
type GuardrailResult struct {
	Model string

	BarePPW, GuardedPPW float64
	BareRSV             float64
	// WorstRelPerf is the minimum per-benchmark performance relative to
	// the always-high reference — the figure a guardrail exists to bound.
	BareWorst, GuardedWorst float64
	Trips                   int
}

// GuardrailStudy deploys a controller with and without the guardrail on
// the test corpus.
func GuardrailStudy(e *Env, g *core.GatingController) (*GuardrailResult, error) {
	defer obs.Start("guardrail.study").End()
	res := &GuardrailResult{Model: g.Name, BareWorst: 1, GuardedWorst: 1}

	bare, err := core.EvaluateOnCorpusOracle(e.SimOracle(), g, e.SPEC, e.SPECTel, e.Cfg, e.PM)
	if err != nil {
		return nil, err
	}
	res.BarePPW = bare.MeanBenchmarkPPWGain()
	res.BareRSV = bare.Overall.RSV
	for _, b := range bare.PerBenchmark {
		if b.RelPerf > 0 && b.RelPerf < res.BareWorst {
			res.BareWorst = b.RelPerf
		}
	}

	// Guarded deployment, aggregated by benchmark.
	type agg struct {
		adaptiveEnergy, refEnergy float64
		adaptiveCycles, refCycles uint64
		adaptiveInstrs, refInstrs uint64
	}
	byBench := map[string]*agg{}
	gr := core.DefaultGuardrail()
	for i, tr := range e.SPEC.Traces {
		r, err := e.SimOracle().Deploy(g, tr, e.SPECTel[i], e.Cfg, e.PM, core.DeployOptions{Guardrail: &gr})
		if err != nil {
			return nil, err
		}
		res.Trips += r.GuardrailTrips
		a := byBench[tr.App.Benchmark]
		if a == nil {
			a = &agg{}
			byBench[tr.App.Benchmark] = a
		}
		a.adaptiveEnergy += r.Adaptive.Energy
		a.adaptiveCycles += r.Adaptive.Cycles
		a.adaptiveInstrs += r.Adaptive.Instrs
		a.refEnergy += r.Reference.Energy
		a.refCycles += r.Reference.Cycles
		a.refInstrs += r.Reference.Instrs
	}
	// Sum in benchmark order: a float sum in map order differs in its
	// last bits from run to run.
	names := make([]string, 0, len(byBench))
	for name := range byBench {
		names = append(names, name)
	}
	sort.Strings(names)
	var gainSum float64
	n := 0
	for _, name := range names {
		a := byBench[name]
		if a.refCycles == 0 || a.adaptiveCycles == 0 || a.refEnergy == 0 {
			continue
		}
		refIPC := float64(a.refInstrs) / float64(a.refCycles)
		adIPC := float64(a.adaptiveInstrs) / float64(a.adaptiveCycles)
		refPPW := refIPC / (a.refEnergy / float64(a.refCycles))
		adPPW := adIPC / (a.adaptiveEnergy / float64(a.adaptiveCycles))
		gainSum += adPPW/refPPW - 1
		n++
		if rel := adIPC / refIPC; rel < res.GuardedWorst {
			res.GuardedWorst = rel
		}
	}
	if n > 0 {
		res.GuardedPPW = gainSum / float64(n)
	}
	return res, nil
}

// PrintGuardrail renders the study.
func PrintGuardrail(w io.Writer, r *GuardrailResult) {
	fmt.Fprintf(w, "Guardrail study (%s)\n", r.Model)
	fmt.Fprintf(w, "  bare:    PPW %+6.1f%%  RSV %5.2f%%  worst benchmark perf %5.1f%%\n",
		100*r.BarePPW, 100*r.BareRSV, 100*r.BareWorst)
	fmt.Fprintf(w, "  guarded: PPW %+6.1f%%  trips %-4d worst benchmark perf %5.1f%%\n",
		100*r.GuardedPPW, r.Trips, 100*r.GuardedWorst)
}
