package core

import (
	"fmt"
	"sort"

	"clustergate/internal/dataset"
	"clustergate/internal/metrics"
	"clustergate/internal/parallel"
	"clustergate/internal/power"
	"clustergate/internal/trace"
)

// SLAWindowInstrs is the SLA measurement window expressed in instructions.
// The paper measures over T_SLA = 1 ms at 16G instructions/s (16M
// instructions); traces here are scaled down ~1000× from the paper's 200M
// SimPoints, so the window scales to 160k instructions, preserving the
// ratio of window length to trace length. A window is violated when more
// than half of its gating decisions are false positives (Eqs. 2–3).
const SLAWindowInstrs = 160_000

// Window returns the SLA window, in predictions, for a controller's
// granularity.
func (g *GatingController) Window() metrics.SLAWindow {
	w := SLAWindowInstrs / g.Granularity
	if w < 1 {
		w = 1
	}
	return metrics.SLAWindow{W: w}
}

// BenchResult aggregates deployment metrics over one benchmark (or any
// group of traces).
type BenchResult struct {
	Name      string
	Traces    int
	Confusion metrics.Confusion
	// RSV over all SLA windows of the group's traces.
	RSV float64
	// PPWGain and RelPerf are energy-weighted over the group.
	PPWGain   float64
	RelPerf   float64
	Residency float64
	Switches  int

	adaptive, reference power.Span
	windows, violations int
}

func (b *BenchResult) fold(r *DeploymentResult, win metrics.SLAWindow) {
	b.Traces++
	for i := range r.Pred {
		b.Confusion.Add(r.Pred[i], r.Truth[i])
	}
	// Count violating windows trace-locally (windows never straddle
	// traces, matching the paper's per-trace window accounting); partial
	// tail windows are skipped as statistically meaningless at this scale.
	w := win.W
	for start := 0; start+w <= len(r.Pred); start += w {
		fp := 0
		for i := start; i < start+w; i++ {
			if r.Pred[i] == 1 && r.Truth[i] == 0 {
				fp++
			}
		}
		b.windows++
		if float64(fp)/float64(w) > 0.5 {
			b.violations++
		}
	}
	if len(r.Pred) > 0 && len(r.Pred) < w {
		// Traces shorter than one window still contribute one window so
		// extremely coarse models are not unmeasurable.
		fp := 0
		for i := range r.Pred {
			if r.Pred[i] == 1 && r.Truth[i] == 0 {
				fp++
			}
		}
		b.windows++
		if float64(fp)/float64(len(r.Pred)) > 0.5 {
			b.violations++
		}
	}
	b.adaptive.Energy += r.Adaptive.Energy
	b.adaptive.Cycles += r.Adaptive.Cycles
	b.adaptive.Instrs += r.Adaptive.Instrs
	b.reference.Energy += r.Reference.Energy
	b.reference.Cycles += r.Reference.Cycles
	b.reference.Instrs += r.Reference.Instrs
	b.Residency += r.LowResidency
	b.Switches += r.Switches
}

func (b *BenchResult) finish() {
	if b.windows > 0 {
		b.RSV = float64(b.violations) / float64(b.windows)
	}
	if ref := b.reference.PPW(); ref > 0 {
		b.PPWGain = b.adaptive.PPW()/ref - 1
	}
	if ref := b.reference.IPC(); ref > 0 {
		b.RelPerf = b.adaptive.IPC() / ref
	}
	if b.Traces > 0 {
		b.Residency /= float64(b.Traces)
	}
}

// Summary is a corpus-level deployment evaluation.
type Summary struct {
	Controller string
	Overall    BenchResult
	// PerBenchmark is sorted by benchmark name; empty names (HDTR traces)
	// group under the application name instead.
	PerBenchmark []*BenchResult
}

// MeanBenchmarkPPWGain averages PPW gain across benchmarks, the statistic
// Figure 8 reports ("improves PPW by X% on average" across SPEC2017).
func (s *Summary) MeanBenchmarkPPWGain() float64 {
	if len(s.PerBenchmark) == 0 {
		return s.Overall.PPWGain
	}
	sum := 0.0
	for _, b := range s.PerBenchmark {
		sum += b.PPWGain
	}
	return sum / float64(len(s.PerBenchmark))
}

// EvaluateOnCorpus deploys the controller on every trace of the corpus
// through oracle and aggregates overall and per-benchmark results. tel
// must be the corpus's fixed-mode telemetry in trace order (as produced by
// SimulateCorpus). Pass ExactOracle{} to deploy on the cycle model.
//
// Per-trace deployments are independent (the controller is read-only
// during a deployment; all mutable state is trace-local), so they fan out
// over cfg.Workers workers; the floating-point aggregation then folds the
// ordered results serially, keeping the summary bit-identical at any
// worker count.
func EvaluateOnCorpus(oracle SimOracle, g *GatingController, corpus *trace.Corpus,
	tel []*dataset.TraceTelemetry, cfg dataset.Config, pm *power.Model) (*Summary, error) {
	if len(corpus.Traces) != len(tel) {
		return nil, fmt.Errorf("core: %d traces but %d telemetry records", len(corpus.Traces), len(tel))
	}
	win := g.Window()
	sum := &Summary{Controller: g.Name}
	byBench := map[string]*BenchResult{}

	runs, err := parallel.Map(cfg.Workers, len(corpus.Traces), func(i int) (*DeploymentResult, error) {
		r, err := oracle.Deploy(g, corpus.Traces[i], tel[i], cfg, pm, DeployOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: deploying %s: %w", corpus.Traces[i].Name, err)
		}
		return &r.DeploymentResult, nil
	})
	if err != nil {
		return nil, err
	}

	for i, tr := range corpus.Traces {
		r := runs[i]
		sum.Overall.fold(r, win)
		key := tr.App.Benchmark
		if key == "" {
			key = tr.App.Name
		}
		b := byBench[key]
		if b == nil {
			b = &BenchResult{Name: key}
			byBench[key] = b
		}
		b.fold(r, win)
	}

	sum.Overall.Name = "overall"
	sum.Overall.finish()
	for _, b := range byBench {
		b.finish()
		sum.PerBenchmark = append(sum.PerBenchmark, b)
	}
	sort.Slice(sum.PerBenchmark, func(i, j int) bool {
		return sum.PerBenchmark[i].Name < sum.PerBenchmark[j].Name
	})
	return sum, nil
}
