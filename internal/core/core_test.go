package core

import (
	"math"
	"testing"

	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

// testEnv bundles a small but representative training corpus, test corpus,
// and their telemetry, shared across integration tests.
type testEnv struct {
	cs      *telemetry.CounterSet
	cfg     dataset.Config
	cols    []int
	hdtrTel []*dataset.TraceTelemetry
	spec    *trace.Corpus
	specTel []*dataset.TraceTelemetry
	pm      *power.Model
	in      BuildInputs
}

var sharedEnv *testEnv

func env(t *testing.T) *testEnv {
	t.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	if testing.Short() {
		t.Skip("integration environment skipped in -short mode")
	}
	cs := telemetry.NewStandardCounterSet()
	cfg := dataset.DefaultConfig()
	cfg.Warmup = 30_000

	hdtr := trace.BuildHDTR(trace.HDTRConfig{
		Apps: 84, MeanTracesPerApp: 2, InstrsPerTrace: 350_000, Seed: 11,
	})
	hdtrTel := dataset.SimulateCorpus(hdtr, cfg)

	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 450_000, Seed: 13})
	// Keep a manageable subset: first trace of each benchmark family.
	seen := map[string]int{}
	sub := &trace.Corpus{Name: "spec-sub"}
	for _, tr := range spec.Traces {
		if seen[tr.App.Benchmark] < 2 {
			seen[tr.App.Benchmark]++
			sub.Traces = append(sub.Traces, tr)
		}
	}
	specTel := dataset.SimulateCorpus(sub, cfg)

	cols, err := ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	sharedEnv = &testEnv{
		cs:      cs,
		cfg:     cfg,
		cols:    cols,
		hdtrTel: hdtrTel,
		spec:    sub,
		specTel: specTel,
		pm:      power.DefaultModel(),
		in: BuildInputs{
			Tel:      hdtrTel,
			Counters: cs,
			Columns:  cols,
			SLA:      dataset.SLA{PSLA: 0.9},
			Interval: cfg.Interval,
			Spec:     mcu.DefaultSpec(),
			Seed:     7,
		},
	}
	return sharedEnv
}

func TestBuildBestRFEndToEnd(t *testing.T) {
	e := env(t)
	g, err := BuildBestRF(e.in)
	if err != nil {
		t.Fatal(err)
	}
	if g.Granularity != 40_000 {
		t.Errorf("Best RF granularity = %d, want 40000 (538-op budget fit)", g.Granularity)
	}
	if err := g.Validate(mcu.DefaultSpec()); err != nil {
		t.Fatal(err)
	}

	sum, err := EvaluateOnCorpus(ExactOracle{}, g, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Overall.Confusion.Total() == 0 {
		t.Fatal("no predictions recorded")
	}
	if pgos := sum.Overall.Confusion.PGOS(); pgos < 0.35 {
		t.Errorf("PGOS = %.3f, implausibly low for a trained model", pgos)
	}
	if sum.Overall.RSV > 0.15 {
		t.Errorf("RSV = %.3f, calibration ineffective", sum.Overall.RSV)
	}
	if gain := sum.Overall.PPWGain; gain <= 0 {
		t.Errorf("PPW gain = %.3f, adaptive CPU should beat always-high", gain)
	}
	if rel := sum.Overall.RelPerf; rel < 0.85 || rel > 1.01 {
		t.Errorf("relative performance = %.3f, outside plausible band", rel)
	}
}

func TestCHARSTARMoreViolationsThanBestRF(t *testing.T) {
	e := env(t)
	rf, err := BuildBestRF(e.in)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := BuildCHARSTAR(e.in)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Granularity != 20_000 {
		t.Errorf("CHARSTAR granularity = %d, want 20000", ch.Granularity)
	}
	if ch.ThresholdHigh != 0.5 || ch.ThresholdLow != 0.5 {
		t.Error("CHARSTAR must use uncalibrated 0.5 thresholds")
	}

	rfSum, err := EvaluateOnCorpus(ExactOracle{}, rf, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	chSum, err := EvaluateOnCorpus(ExactOracle{}, ch, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	if chSum.Overall.RSV < rfSum.Overall.RSV {
		t.Errorf("CHARSTAR RSV %.4f < Best RF RSV %.4f; blindspot mitigation shows no effect",
			chSum.Overall.RSV, rfSum.Overall.RSV)
	}
}

// scriptedPredictor always answers the same configuration.
type scriptedPredictor float64

func (s scriptedPredictor) ScoreWindow(agg []float64, per [][]float64) float64 {
	return float64(s)
}

// Reads declares the aggregate, as a point model does, though the score
// reads neither vector.
func (scriptedPredictor) Reads() Inputs { return ReadsAggregate }

func scriptedController(e *testEnv, score float64) *GatingController {
	return &GatingController{
		Name:     "scripted",
		HighPerf: scriptedPredictor(score), LowPower: scriptedPredictor(score),
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: e.cfg.Interval, Granularity: 10_000,
		Counters: e.cs, Columns: e.cols,
		SLA: dataset.SLA{PSLA: 0.9},
	}
}

func TestDeployAlwaysHighKeepsReferenceBehaviour(t *testing.T) {
	e := env(t)
	g := scriptedController(e, 0.0) // never gate
	r, err := DeployWithOptions(g, e.spec.Traces[0], e.specTel[0], e.cfg, e.pm, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.LowResidency != 0 {
		t.Errorf("never-gate residency = %v, want 0", r.LowResidency)
	}
	if r.Switches != 0 {
		t.Errorf("never-gate switches = %d, want 0", r.Switches)
	}
	// Adaptive run equals the reference run: PPW gain ≈ 0.
	if math.Abs(r.PPWGain()) > 0.02 {
		t.Errorf("never-gate PPW gain = %.4f, want ≈0", r.PPWGain())
	}
	if math.Abs(r.RelPerformance()-1) > 0.02 {
		t.Errorf("never-gate relative performance = %.4f, want ≈1", r.RelPerformance())
	}
}

func TestDeployAlwaysGate(t *testing.T) {
	e := env(t)
	g := scriptedController(e, 1.0) // always gate
	// Pick a serial-ish HDTR trace where gating is mostly safe; residency
	// should approach 1 after the two-window pipeline delay.
	var tr *trace.Trace
	var tel *dataset.TraceTelemetry
	hdtr := trace.BuildHDTR(trace.HDTRConfig{Apps: 84, MeanTracesPerApp: 2, InstrsPerTrace: 350_000, Seed: 11})
	for i, cand := range hdtr.Traces {
		if cand.Name == e.hdtrTel[i].TraceName {
			tr, tel = cand, e.hdtrTel[i]
			break
		}
	}
	if tr == nil {
		t.Fatal("no aligned trace found")
	}
	r, err := DeployWithOptions(g, tr, tel, e.cfg, e.pm, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.LowResidency < 0.5 {
		t.Errorf("always-gate residency = %.3f, want >0.5 (pipeline delay only)", r.LowResidency)
	}
	if r.Switches != 1 {
		t.Errorf("always-gate switches = %d, want exactly 1 (high→low once)", r.Switches)
	}
	for _, p := range r.Pred {
		if p != 1 {
			t.Fatal("always-gate predictor produced a 0 decision")
		}
	}
}

func TestDeployTraceMismatch(t *testing.T) {
	e := env(t)
	g := scriptedController(e, 0)
	if _, err := DeployWithOptions(g, e.spec.Traces[0], e.specTel[1], e.cfg, e.pm, DeployOptions{}); err == nil {
		t.Error("mismatched trace/telemetry accepted")
	}
}

func TestControllerValidate(t *testing.T) {
	e := env(t)
	g := scriptedController(e, 0)
	if err := g.Validate(mcu.DefaultSpec()); err != nil {
		t.Errorf("valid controller rejected: %v", err)
	}
	bad := *g
	bad.Granularity = 15_000 // not a multiple of 10k
	if err := bad.Validate(mcu.DefaultSpec()); err == nil {
		t.Error("non-multiple granularity accepted")
	}
	bad2 := *g
	bad2.OpsPerPrediction = 1_000_000
	if err := bad2.Validate(mcu.DefaultSpec()); err == nil {
		t.Error("over-budget controller accepted")
	}
	bad3 := *g
	bad3.LowPower = nil
	if err := bad3.Validate(mcu.DefaultSpec()); err == nil {
		t.Error("missing model accepted")
	}
}

func TestWindowArithmetic(t *testing.T) {
	g := &GatingController{Interval: 10_000, Granularity: 40_000}
	windows, preds := g.VerifyWindowArithmetic(20)
	if windows != 5 || preds != 3 {
		t.Errorf("windows/preds = %d/%d, want 5/3", windows, preds)
	}
	if w := g.Window(); w.W != 4 {
		t.Errorf("SLA window = %d predictions, want 4 (160k/40k)", w.W)
	}
}

func TestCalibrationLowersFalsePositives(t *testing.T) {
	e := env(t)
	calibrated, err := BuildBestMLP(e.in)
	if err != nil {
		t.Fatal(err)
	}
	inRaw := e.in
	inRaw.NoCalibration = true
	raw, err := BuildBestMLP(inRaw)
	if err != nil {
		t.Fatal(err)
	}
	if calibrated.ThresholdLow < raw.ThresholdLow && calibrated.ThresholdHigh < raw.ThresholdHigh {
		t.Errorf("calibration produced thresholds below 0.5 on both modes: %v/%v",
			calibrated.ThresholdHigh, calibrated.ThresholdLow)
	}

	calSum, err := EvaluateOnCorpus(ExactOracle{}, calibrated, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	rawSum, err := EvaluateOnCorpus(ExactOracle{}, raw, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	if calSum.Overall.RSV > rawSum.Overall.RSV+1e-9 {
		t.Errorf("calibration raised RSV: %.4f vs %.4f", calSum.Overall.RSV, rawSum.Overall.RSV)
	}
}

func TestRetrainSLALoosensGating(t *testing.T) {
	e := env(t)
	tight, err := RetrainSLA(e.in, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := RetrainSLA(e.in, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	tightSum, err := EvaluateOnCorpus(ExactOracle{}, tight, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	looseSum, err := EvaluateOnCorpus(ExactOracle{}, loose, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	if looseSum.Overall.Residency <= tightSum.Overall.Residency {
		t.Errorf("P_SLA 0.7 residency %.3f ≤ 0.9 residency %.3f; looser SLA should gate more",
			looseSum.Overall.Residency, tightSum.Overall.Residency)
	}
	if looseSum.Overall.PPWGain <= tightSum.Overall.PPWGain {
		t.Errorf("P_SLA 0.7 PPW gain %.3f ≤ 0.9 gain %.3f (Table 5 shape)",
			looseSum.Overall.PPWGain, tightSum.Overall.PPWGain)
	}
}

func TestBuildSRCH(t *testing.T) {
	e := env(t)
	in := e.in
	g, err := BuildSRCH(in, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := EvaluateOnCorpus(ExactOracle{}, g, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Overall.Confusion.Total() == 0 {
		t.Fatal("SRCH made no predictions")
	}

	coarse, err := BuildSRCH(in, SRCHCoarseGranularity)
	if err != nil {
		t.Fatal(err)
	}
	coarseSum, err := EvaluateOnCorpus(ExactOracle{}, coarse, e.spec, e.specTel, e.cfg, e.pm)
	if err != nil {
		t.Fatal(err)
	}
	if coarseSum.Overall.PPWGain > sum.Overall.PPWGain {
		t.Errorf("coarse SRCH gain %.3f exceeds fine-grained %.3f; granularity effect inverted",
			coarseSum.Overall.PPWGain, sum.Overall.PPWGain)
	}
}

func TestBuildAppSpecificRF(t *testing.T) {
	e := env(t)
	// Use one benchmark's telemetry as the "application".
	groups := dataset.ByBenchmark(e.specTel)
	var appTel []*dataset.TraceTelemetry
	for name, g := range groups {
		if name != "" && len(g) >= 2 {
			appTel = g
			break
		}
	}
	if appTel == nil {
		t.Skip("no multi-trace benchmark in the test subset")
	}
	g, err := BuildAppSpecificRF(e.in, appTel[:1], "test-app")
	if err != nil {
		t.Fatal(err)
	}
	if g.OpsPerPrediction == 0 {
		t.Error("grafted forest reports zero inference cost")
	}
	if err := g.Validate(mcu.DefaultSpec()); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBenchmarkPPWGain(t *testing.T) {
	s := &Summary{
		PerBenchmark: []*BenchResult{
			{Name: "a", PPWGain: 0.1},
			{Name: "b", PPWGain: 0.3},
		},
	}
	if got := s.MeanBenchmarkPPWGain(); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("mean gain = %v, want 0.2", got)
	}
	empty := &Summary{}
	empty.Overall.PPWGain = 0.05
	if got := empty.MeanBenchmarkPPWGain(); got != 0.05 {
		t.Errorf("fallback gain = %v, want overall", got)
	}
}

func TestWindowTruthAggregation(t *testing.T) {
	ref := &dataset.TraceTelemetry{
		HighPerf: []dataset.IntervalRecord{{IPC: 4}, {IPC: 4}, {IPC: 2}, {IPC: 2}},
		LowPower: []dataset.IntervalRecord{{IPC: 3.8}, {IPC: 3.8}, {IPC: 1.0}, {IPC: 1.0}},
	}
	sla := dataset.SLA{PSLA: 0.9}
	if got := windowTruth(ref, 0, 2, sla); got != 1 {
		t.Errorf("window 0 truth = %d, want 1 (3.8 ≥ 0.9×4)", got)
	}
	if got := windowTruth(ref, 1, 2, sla); got != 0 {
		t.Errorf("window 1 truth = %d, want 0 (1.0 < 0.9×2)", got)
	}
	if got := windowTruth(ref, 5, 2, sla); got != 0 {
		t.Errorf("out-of-range window truth = %d, want 0", got)
	}
}
