package clustergate

// The benchmark harness: one testing.B benchmark per paper table and
// figure. Each benchmark regenerates its experiment at a small scale and
// reports the headline metrics via b.ReportMetric, so `go test -bench=.`
// reproduces every row/series shape the paper publishes. cmd/paperbench
// runs the same experiments at full scale.

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/experiments"
	"clustergate/internal/mcu"
	"clustergate/internal/obs"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env lazily builds a shared quick-scale environment; the telemetry cache
// under .cache makes repeat benchmark runs fast. REPRO_WORKERS bounds the
// worker pool like the -workers flags on the commands; it defaults to 1 so
// benchmark numbers are deterministic and comparable across machines.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		scale := experiments.QuickScale()
		if os.Getenv("REPRO_FULL") != "" {
			scale = experiments.DefaultScale()
		}
		workers := 1
		if w, err := strconv.Atoi(os.Getenv("REPRO_WORKERS")); err == nil && w >= 0 {
			workers = w
		}
		scale.Workers = workers
		benchEnv, benchEnvErr = experiments.NewEnv(scale, ".cache", 1)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

// BenchmarkTable3Budget regenerates Table 3 (left): the microcontroller
// operation budget per prediction granularity.
func BenchmarkTable3Budget(b *testing.B) {
	spec := mcu.DefaultSpec()
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3Budget(spec)
		if rows[3].Budget != 625 {
			b.Fatalf("40k budget = %d, want 625", rows[3].Budget)
		}
	}
	b.ReportMetric(625, "ops-budget-40k")
}

// BenchmarkTable3Models regenerates Table 3 (right): cost, memory, and
// PGOS per model class.
func BenchmarkTable3Models(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3Models(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				if r.Config == "8 trees, max depth 8" {
					b.ReportMetric(100*r.PGOS.Mean, "rf8x8-pgos-%")
				}
			}
		}
	}
}

// BenchmarkFig4Diversity regenerates Figure 4: training-set diversity
// against PGOS stability and RSV.
func BenchmarkFig4Diversity(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig4Diversity(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			first, last := pts[0], pts[len(pts)-1]
			b.ReportMetric(100*first.RSV.Mean, "rsv-few-apps-%")
			b.ReportMetric(100*last.RSV.Mean, "rsv-many-apps-%")
		}
	}
}

// BenchmarkFig5Counters regenerates Figure 5: counter count vs PGOS/RSV.
func BenchmarkFig5Counters(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig5Counters(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*pts[len(pts)-1].PGOS.Mean, "pgos-max-counters-%")
		}
	}
}

// BenchmarkFig6Screen regenerates Figure 6: the MLP hyperparameter screen.
func BenchmarkFig6Screen(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig6Screen(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			best := experiments.BestByScreen(pts)
			b.ReportMetric(float64(len(best.Hidden)), "selected-layers")
		}
	}
}

// BenchmarkFig7Oracle regenerates Figure 7: ideal low-power residency.
func BenchmarkFig7Oracle(b *testing.B) {
	e := env(b)
	var mean float64
	for i := 0; i < b.N; i++ {
		_, mean = experiments.Fig7Oracle(e)
	}
	b.ReportMetric(100*mean, "mean-residency-%")
}

// BenchmarkFig8Models regenerates Figure 8: PPW gain and RSV for all five
// adaptation models deployed on the test suite.
func BenchmarkFig8Models(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		gs, err := experiments.BuildFig8Controllers(e)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.Fig8Evaluate(e, gs)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				switch r.Model {
				case "best-rf":
					b.ReportMetric(100*r.Summary.MeanBenchmarkPPWGain(), "bestrf-ppw-%")
					b.ReportMetric(100*r.Summary.Overall.RSV, "bestrf-rsv-%")
				case "charstar":
					b.ReportMetric(100*r.Summary.Overall.RSV, "charstar-rsv-%")
				}
			}
		}
	}
}

// BenchmarkFig9PerApp regenerates Figure 9: the per-benchmark CHARSTAR vs
// Best RF breakdown (the roms_s blindspot).
func BenchmarkFig9PerApp(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		gs, err := experiments.BuildFig8Controllers(e)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.Fig8Evaluate(e, gs[2:3]) // charstar only
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, bench := range rows[0].Summary.PerBenchmark {
				if bench.Name == "654.roms_s" {
					b.ReportMetric(100*bench.RSV, "charstar-roms-rsv-%")
				}
			}
		}
	}
}

// BenchmarkFig10Ablation regenerates Figure 10: the blindspot-mitigation
// ablation ladder.
func BenchmarkFig10Ablation(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		steps, err := experiments.Fig10Ablation(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*steps[0].RSV, "rsv-baseline-%")
			b.ReportMetric(100*steps[len(steps)-1].RSV, "rsv-mitigated-%")
		}
	}
}

// BenchmarkTable5SLA regenerates Table 5: post-silicon SLA retuning.
func BenchmarkTable5SLA(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table5SLARetune(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*rows[0].PPWGain, "ppw-sla090-%")
			b.ReportMetric(100*rows[len(rows)-1].PPWGain, "ppw-sla070-%")
		}
	}
}

// BenchmarkTable6AppSpecific regenerates Table 6: application-specific
// grafted retraining.
func BenchmarkTable6AppSpecific(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		general, err := experiments.BuildGeneralBestRF(e)
		if err != nil {
			b.Fatal(err)
		}
		sum, err := core.EvaluateOnCorpus(core.ExactOracle{}, general, e.SPEC, e.SPECTel, e.Cfg, e.PM)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := experiments.Table6AppSpecific(e, general, sum)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && len(rows) > 0 {
			improved := 0
			for _, r := range rows {
				if r.Delta() > 0 {
					improved++
				}
			}
			b.ReportMetric(float64(improved), "apps-improved")
			b.ReportMetric(float64(len(rows)), "apps-total")
		}
	}
}

// BenchmarkAblations regenerates the DESIGN.md design-choice ablations
// (reactive labels, shared model, raw counts, fixed threshold).
func BenchmarkAblations(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Ablations(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(100*rows[0].RSV, "reference-rsv-%")
			b.ReportMetric(100*rows[len(rows)-1].RSV, "uncalibrated-rsv-%")
		}
	}
}

// BenchmarkDVFSComplementarity regenerates the Section 1 motivation: the
// PPW gain from gating at the DVFS voltage floor (V_min), where frequency
// scaling has stopped saving energy quadratically. The gain staying large
// at V_min is the paper's case for cluster gating as a complementary
// lever (see examples/dvfs for the full sweep).
func BenchmarkDVFSComplementarity(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		g, err := experiments.DVFSGainAtVmin(3)
		if err != nil {
			b.Fatal(err)
		}
		gain = g
	}
	b.ReportMetric(100*gain, "gating-gain-at-vmin-%")
}

// uarchBenchApp builds the deterministic mixed-phase application the
// Execute hot-loop benchmarks run; archetype 0 blends serial, ILP, and
// memory phases, which is what the fleet soak loops actually execute.
func uarchBenchApp() *trace.Application { return trace.NewApplication(0, "uarchbench", 1) }

// uarchMemBoundApp is a single-phase random-access working set far larger
// than L2, the worst case for the cache-hierarchy side of the hot loop.
func uarchMemBoundApp() *trace.Application {
	return &trace.Application{
		Name: "uarchmem",
		Phases: []trace.Phase{{Params: trace.PhaseParams{
			DepDist: 4, LoadFrac: 0.34, StoreFrac: 0.1, BranchFrac: 0.08,
			DataFootprint: 256 << 20, CodeFootprint: 16 << 10,
			StrideFrac: 0.1, BranchEntropy: 0.1,
		}, Length: 1 << 30}},
		Transition: [][]float64{{1}},
		Seed:       1,
	}
}

// benchmarkUarchExecute measures steady-state Core.Execute throughput on a
// pre-generated instruction window. Instructions/sec is derived from the
// uarch.instructions obs counter delta over the timed region, so the
// metric measures exactly what the simulator retires; ns/instr is its
// reciprocal. Allocations are reported so the zero-alloc guarantee shows
// up in the -benchmem columns.
func benchmarkUarchExecute(b *testing.B, app *trace.Application, mode uarch.Mode, derate float64) {
	const window = 100_000
	buf := make([]trace.Instruction, window)
	trace.NewStream(&trace.Trace{App: app, Seed: 1, NumInstrs: window}).Read(buf)
	core := uarch.NewCoreInMode(uarch.DefaultConfig(), mode)
	if derate > 1 {
		core.SetMemDerate(derate)
	}
	core.Execute(buf) // warm caches and scratch before timing
	b.ReportAllocs()
	b.ResetTimer()
	before := obs.CounterValue("uarch.instructions")
	start := time.Now()
	for i := 0; i < b.N; i++ {
		core.Execute(buf)
	}
	elapsed := time.Since(start)
	instrs := obs.CounterValue("uarch.instructions") - before
	b.ReportMetric(float64(instrs)/elapsed.Seconds(), "instrs/s")
	b.ReportMetric(elapsed.Seconds()*1e9/float64(instrs), "ns/instr")
}

// BenchmarkUarchExecuteHighPerf is the headline hot-loop number: the
// dual-cluster mode over the mixed-phase corpus archetype.
func BenchmarkUarchExecuteHighPerf(b *testing.B) {
	benchmarkUarchExecute(b, uarchBenchApp(), uarch.ModeHighPerf, 0)
}

// BenchmarkUarchExecuteLowPower runs the gated single-cluster mode.
func BenchmarkUarchExecuteLowPower(b *testing.B) {
	benchmarkUarchExecute(b, uarchBenchApp(), uarch.ModeLowPower, 0)
}

// BenchmarkUarchExecuteMemBound stresses the cache hierarchy and DRAM
// channel paths of the hot loop.
func BenchmarkUarchExecuteMemBound(b *testing.B) {
	benchmarkUarchExecute(b, uarchMemBoundApp(), uarch.ModeHighPerf, 0)
}

// BenchmarkUarchExecuteDerated runs memory-bound execution under a DRAM
// derate, the fault-injection configuration the fleet soak loops execute.
func BenchmarkUarchExecuteDerated(b *testing.B) {
	benchmarkUarchExecute(b, uarchMemBoundApp(), uarch.ModeHighPerf, 6)
}

// BenchmarkSimulateCorpusParallel measures the simulation worker pool's
// speedup: one -workers=1 pass establishes the serial baseline, the timed
// loop simulates the same corpus on every core, and the ratio lands in
// the "speedup-x" metric (expect ~3x or better at 4 workers on a 4+ core
// machine; ~1x on a single-core host). The telemetry is byte-identical at
// any worker count — see internal/dataset's determinism tests.
func BenchmarkSimulateCorpusParallel(b *testing.B) {
	c := trace.BuildHDTR(trace.HDTRConfig{
		Apps: 16, MeanTracesPerApp: 2, InstrsPerTrace: 120_000, Seed: 5,
	})
	cfg := dataset.DefaultConfig()

	cfg.Workers = 1
	start := time.Now()
	dataset.SimulateCorpus(c, cfg)
	serial := time.Since(start)

	cfg.Workers = 0 // all cores
	b.ResetTimer()
	start = time.Now()
	for i := 0; i < b.N; i++ {
		dataset.SimulateCorpus(c, cfg)
	}
	par := time.Since(start) / time.Duration(b.N)

	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	b.ReportMetric(serial.Seconds()/par.Seconds(), "speedup-x")
}
