package surrogate

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/ml"
	"clustergate/internal/ml/linear"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// TestBaseIndicesMatchTelemetry locks the surrogate's hard-coded base
// indices to the telemetry extraction order.
func TestBaseIndicesMatchTelemetry(t *testing.T) {
	want := map[int]string{
		idxUopCacheMisses:  "uop_cache_misses",
		idxStall:           "stall_count",
		idxUopCacheHits:    "uop_cache_hits",
		idxMispredicts:     "branch_mispredicts",
		idxL2Misses:        "l2_misses",
		idxInstrs:          "instructions",
		idxBusy:            "busy_cycles",
		idxReadyWait:       "ready_wait_cycles",
		idxCrossForwards:   "cross_cluster_forwards",
		idxModeSwitches:    "mode_switches",
		idxRegTransferUops: "reg_transfer_uops",
		idxPrefetchFills:   "prefetch_fills",
		idxCycles:          "cycles",
	}
	for idx, name := range want {
		if telemetry.BaseNames[idx] != name {
			t.Errorf("index %d: surrogate expects %q, telemetry has %q", idx, name, telemetry.BaseNames[idx])
		}
	}
	if idxCycles != telemetry.NumBase-1 {
		t.Errorf("cycles index %d, want %d", idxCycles, telemetry.NumBase-1)
	}
}

// waveScorer oscillates with the first feature, so controllers built on it
// switch modes repeatedly during a deployment.
type waveScorer struct{}

func (waveScorer) Score(x []float64) float64 { return 0.5 + 0.5*math.Sin(40*x[0]) }

// constScorer scores a constant, pinning the controller to one decision.
type constScorer struct{ v float64 }

func (c constScorer) Score(x []float64) float64 { return c.v }

// testController builds a minimal controller over the Table 4 counters.
func testController(t *testing.T, cfg dataset.Config, m ml.Model) *core.GatingController {
	t.Helper()
	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	return &core.GatingController{
		Name:     "surrogate-test",
		HighPerf: core.PointPredictor{M: m}, LowPower: core.PointPredictor{M: m},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: cfg.Interval, Granularity: 2 * cfg.Interval,
		Counters: cs, Columns: cols,
		SLA: dataset.SLA{PSLA: 0.9},
	}
}

// testCorpus simulates a small SPEC slice once per test binary.
var testCorpusCache struct {
	c   *trace.Corpus
	tel []*dataset.TraceTelemetry
}

func testCorpus(t *testing.T) (*trace.Corpus, []*dataset.TraceTelemetry, dataset.Config) {
	t.Helper()
	if testing.Short() {
		t.Skip("surrogate corpus simulation skipped in -short mode")
	}
	cfg := dataset.DefaultConfig()
	if testCorpusCache.c == nil {
		spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 200_000, Seed: 13})
		sub := &trace.Corpus{Name: "spec-sub", Traces: spec.Traces[:6]}
		testCorpusCache.c = sub
		testCorpusCache.tel = dataset.SimulateCorpus(sub, cfg)
	}
	return testCorpusCache.c, testCorpusCache.tel, cfg
}

func trainTestModel(t *testing.T, c *trace.Corpus, tel []*dataset.TraceTelemetry, cfg dataset.Config) *Model {
	t.Helper()
	m, err := Train(c, tel, cfg, TrainOptions{Seed: 7, MaxTraces: len(c.Traces)})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplayMatchesExactWithoutSwitches is the pass-through differential
// test: with a never-gating controller and a pure-analytic model the
// spliced intervals ARE the recordings, so under telemetry drop and glitch
// plans, with the guardrail on and off, every field of the result must
// equal the exact simulator's, fault and guardrail accounting included.
func TestReplayMatchesExactWithoutSwitches(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	g := testController(t, cfg, constScorer{v: 0})
	pm := power.DefaultModel()
	pure := &Model{FeatureVersion: FeatureVersion, Fingerprint: Fingerprint(cfg)}
	plans := []fault.Plan{{}}
	for _, seed := range []int64{3, 17} {
		plans = append(plans, fault.Plan{Seed: seed, Rules: []fault.Rule{
			{Class: fault.TelemetryDrop, Rate: 0.1, Burst: 3},
			{Class: fault.CounterGlitch, Rate: 0.1, Burst: 3},
		}})
	}
	gr := core.DefaultGuardrail()
	var injected int64
	var trips int
	for _, guard := range []*core.Guardrail{nil, &gr} {
		for p, plan := range plans {
			opts := core.DeployOptions{Guardrail: guard}
			if len(plan.Rules) > 0 {
				inj, err := fault.NewInjector(plan)
				if err != nil {
					t.Fatal(err)
				}
				opts.Injector = inj
			}
			for i, tr := range c.Traces {
				exact, err := core.DeployWithOptions(g, tr, tel[i], cfg, pm, opts)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := pure.Replay(g, tr, tel[i], cfg, pm, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(exact, rep) {
					t.Fatalf("guardrail %v plan %d %s: replay diverged from exact without switches:\nexact  %+v\nreplay %+v",
						guard != nil, p, tr.Name, exact, rep)
				}
				injected += exact.InjectedFaults
				trips += exact.GuardrailTrips
			}
		}
	}
	if injected == 0 || trips == 0 {
		t.Errorf("%d injected faults, %d guardrail trips: the table must exercise both", injected, trips)
	}
}

// TestReplayTracksExactAcrossSwitches checks the oscillating case: the
// decision stream is derived from spliced telemetry, so with a trained
// model predictions stay aligned and adaptive IPC lands within a few
// percent of exact.
func TestReplayTracksExactAcrossSwitches(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	g := testController(t, cfg, waveScorer{})
	pm := power.DefaultModel()
	m := trainTestModel(t, c, tel, cfg)
	for i, tr := range c.Traces {
		exact, err := core.DeployWithOptions(g, tr, tel[i], cfg, pm, core.DeployOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Replay(g, tr, tel[i], cfg, pm, core.DeployOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Pred) != len(exact.Pred) {
			t.Fatalf("%s: %d replay preds, %d exact", tr.Name, len(rep.Pred), len(exact.Pred))
		}
		if !reflect.DeepEqual(rep.Truth, exact.Truth) {
			t.Errorf("%s: Truth diverged (it only depends on recordings)", tr.Name)
		}
		if e := math.Abs(rep.Adaptive.IPC()/exact.Adaptive.IPC() - 1); e > 0.10 {
			t.Errorf("%s: adaptive IPC error %.3f > 0.10", tr.Name, e)
		}
	}
}

// TestSurrogateWorkerDeterminism locks the fast path's determinism
// contract: corpus evaluation through the surrogate oracle is deeply
// equal at workers 1 and 4.
func TestSurrogateWorkerDeterminism(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	g := testController(t, cfg, waveScorer{})
	pm := power.DefaultModel()
	o := NewOracle(trainTestModel(t, c, tel, cfg), core.SimSurrogate, OracleOptions{})
	cfg1 := cfg
	cfg1.Workers = 1
	s1, err := core.EvaluateOnCorpus(o, g, c, tel, cfg1, pm)
	if err != nil {
		t.Fatal(err)
	}
	cfg4 := cfg
	cfg4.Workers = 4
	s4, err := core.EvaluateOnCorpus(o, g, c, tel, cfg4, pm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s1, s4) {
		t.Fatalf("surrogate evaluation differs across worker counts:\nw1 %+v\nw4 %+v", s1, s4)
	}
}

// TestValidateBudget checks both halves of the validate contract: a
// properly trained model passes the 5% p95 bound on every trace, and a
// deliberately mistrained model (constant +40% cycle residual) trips it.
func TestValidateBudget(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	g := testController(t, cfg, waveScorer{})
	pm := power.DefaultModel()

	good := NewOracle(trainTestModel(t, c, tel, cfg), core.SimValidate, OracleOptions{SampleRate: 1})
	for i, tr := range c.Traces {
		if _, err := good.Deploy(g, tr, tel[i], cfg, pm, core.DeployOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if rep := good.Report(); rep.Samples != len(c.Traces) {
		t.Fatalf("expected %d spot checks, got %d", len(c.Traces), rep.Samples)
	}
	if err := good.Check(); err != nil {
		t.Fatalf("trained model failed its own budget: %v", err)
	}

	bad := &Model{
		FeatureVersion: FeatureVersion,
		Fingerprint:    Fingerprint(cfg),
		Backend:        "ridge",
		Ridge:          &linear.Ridge{W: make([]float64, len(FeatureNames)), B: 10},
	}
	badO := NewOracle(bad, core.SimValidate, OracleOptions{SampleRate: 1})
	for i, tr := range c.Traces {
		if _, err := badO.Deploy(g, tr, tel[i], cfg, pm, core.DeployOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := badO.Check(); err == nil {
		t.Fatal("mistrained model passed the validate error budget")
	}
}

// TestFallbackOnFingerprintMismatch: a model trained for another
// configuration must fall back to the exact simulator and produce its
// exact result.
func TestFallbackOnFingerprintMismatch(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	g := testController(t, cfg, waveScorer{})
	pm := power.DefaultModel()
	stale := &Model{FeatureVersion: FeatureVersion, Fingerprint: "some-other-config"}
	o := NewOracle(stale, core.SimSurrogate, OracleOptions{})
	before := surrogateFallback.Value()
	got, err := o.Deploy(g, c.Traces[0], tel[0], cfg, pm, core.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := core.DeployWithOptions(g, c.Traces[0], tel[0], cfg, pm, core.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exact) {
		t.Fatal("fallback result differs from exact simulation")
	}
	if surrogateFallback.Value() != before+1 {
		t.Fatalf("fallback counter %d, want %d", surrogateFallback.Value(), before+1)
	}
}

// TestReplayUnderFaults drives replay and exact through the same fault
// plan and checks the injection accounting lines up: the fault schedule is
// clocked by the interval index, which replay preserves. With an event log
// installed, replays record their guardrail trips and fault injections
// under deploy/<trace>, return the results they return without one, and
// render the same log over 1 worker and over 4.
func TestReplayUnderFaults(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	g := testController(t, cfg, waveScorer{})
	pm := power.DefaultModel()
	m := trainTestModel(t, c, tel, cfg)
	inj, err := fault.NewInjector(fault.Plan{Seed: 99, Rules: []fault.Rule{
		{Class: fault.TelemetryDrop, Rate: 0.05},
		{Class: fault.DRAMDerate, Rate: 0.05, Factor: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	gr := core.DefaultGuardrail()
	opts := core.DeployOptions{Guardrail: &gr, Injector: inj}
	unlogged := make([]*core.GuardedDeploymentResult, len(c.Traces))
	for i, tr := range c.Traces {
		exact, err := core.DeployWithOptions(g, tr, tel[i], cfg, pm, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := m.Replay(g, tr, tel[i], cfg, pm, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.InjectedFaults == 0 && exact.InjectedFaults > 0 {
			t.Errorf("%s: replay saw no faults, exact saw %d", tr.Name, exact.InjectedFaults)
		}
		unlogged[i] = rep
	}

	defer obs.SetEventLog(nil)
	var rendered [][]byte
	for _, workers := range []int{1, 4} {
		log := obs.NewEventLog()
		obs.SetEventLog(log)
		logged, err := parallel.Map(workers, len(c.Traces), func(i int) (*core.GuardedDeploymentResult, error) {
			return m.Replay(g, c.Traces[i], tel[i], cfg, pm, opts)
		})
		obs.SetEventLog(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(logged, unlogged) {
			t.Fatalf("%d workers: replays with an event log differ from replays without one", workers)
		}
		kinds := map[string]bool{}
		for _, ev := range log.Events() {
			if strings.HasPrefix(ev.Scope, "deploy/") {
				kinds[ev.Kind] = true
			}
		}
		for _, kind := range []string{"guardrail.trip", "fault.injected"} {
			if !kinds[kind] {
				t.Errorf("%d workers: no %s event under deploy/<trace>", workers, kind)
			}
		}
		var buf bytes.Buffer
		if err := log.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		rendered = append(rendered, buf.Bytes())
	}
	if !bytes.Equal(rendered[0], rendered[1]) {
		t.Error("replay event log differs between 1 and 4 workers")
	}
}

// TestGoldenFeatures locks the feature schema: extraction over a fixed
// base vector must match the checked-in fixture bit-for-bit. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/surrogate -run Golden — and
// bump FeatureVersion if the change is intentional.
func TestGoldenFeatures(t *testing.T) {
	base := make([]float64, telemetry.NumBase)
	for i := range base {
		base[i] = float64(3 + 7*i)
	}
	base[idxInstrs] = 9000
	base[idxCycles] = 12000
	base[idxBusy] = 7000
	got := struct {
		FeatureVersion int       `json:"feature_version"`
		Names          []string  `json:"names"`
		Steady         []float64 `json:"steady"`
		Transient      []float64 `json:"transient"`
	}{
		FeatureVersion: FeatureVersion,
		Names:          FeatureNames,
		Steady:         Features(base, false, steadySinceSwitch, 0.8, 1),
		Transient:      Features(base, true, 0, 1.25, 4),
	}
	const path = "testdata/features_golden.json"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want struct {
		FeatureVersion int       `json:"feature_version"`
		Names          []string  `json:"names"`
		Steady         []float64 `json:"steady"`
		Transient      []float64 `json:"transient"`
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if want.FeatureVersion != got.FeatureVersion {
		t.Fatalf("feature version drifted: fixture v%d, package v%d", want.FeatureVersion, got.FeatureVersion)
	}
	if !reflect.DeepEqual(want.Names, got.Names) {
		t.Fatalf("feature names drifted:\nfixture %v\npackage %v", want.Names, got.Names)
	}
	if !reflect.DeepEqual(want.Steady, got.Steady) || !reflect.DeepEqual(want.Transient, got.Transient) {
		t.Fatalf("feature extraction drifted from golden fixture:\nfixture steady %v transient %v\ngot     steady %v transient %v",
			want.Steady, want.Transient, got.Steady, got.Transient)
	}
}

// TestSpliceSwitchCost checks the analytic switch patch against the cycle
// model's own cost function.
func TestSpliceSwitchCost(t *testing.T) {
	cfg := uarch.DefaultConfig()
	rec := make([]float64, telemetry.NumBase)
	rec[idxInstrs] = 10000
	rec[idxCycles] = 5000
	rec[idxBusy] = 3000
	rec[idxL2Misses] = 120
	rec[idxPrefetchFills] = 40
	low := Splice(rec, uarch.ModeLowPower, 1, 0, cfg)
	cyc, uops := uarch.SwitchCost(cfg, uarch.ModeLowPower)
	if got := low[idxCycles] - rec[idxCycles]; got != float64(cyc) {
		t.Errorf("low-power switch cycles patched %+v, want %d", got, cyc)
	}
	if got := low[idxRegTransferUops] - rec[idxRegTransferUops]; got != float64(uops) {
		t.Errorf("reg transfer uops patched %+v, want %d", got, uops)
	}
	if low[idxModeSwitches] != rec[idxModeSwitches]+1 {
		t.Error("mode switch count not patched")
	}
	if low[idxStall] != low[idxCycles]-low[idxBusy] {
		t.Error("stall count not re-derived")
	}
	steady := Splice(rec, uarch.ModeLowPower, 1, steadySinceSwitch, cfg)
	if steady[idxCycles] != rec[idxCycles] {
		t.Error("steady-state splice should not patch cycles")
	}
	derated := Splice(rec, uarch.ModeHighPerf, 4, steadySinceSwitch, cfg)
	if derated[idxCycles] <= rec[idxCycles] {
		t.Error("derate splice should add fill-gap cycles")
	}
}
