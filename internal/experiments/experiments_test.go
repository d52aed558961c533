package experiments

import (
	"fmt"
	"strings"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
)

// sharedQuickEnv is built once; experiments exercise it read-only.
var sharedQuickEnv *Env

func quickEnv(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment environment skipped in -short mode")
	}
	if sharedQuickEnv != nil {
		return sharedQuickEnv
	}
	scale := QuickScale()
	// Trim further: the harness structure is under test, not statistics.
	scale.HDTRApps = 60
	scale.Folds = 2
	scale.MLPEpochs = 6
	scale.Fig4Sizes = []int{2, 10}
	scale.Fig5Counters = []int{4, 8}
	scale.SPECTracesPerWorkload = 1
	env, err := NewEnv(scale, t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sharedQuickEnv = env
	return env
}

func TestEnvCounterSelection(t *testing.T) {
	e := quickEnv(t)
	if len(e.PFColumns) == 0 || len(e.PFColumns) > 12 {
		t.Fatalf("PF selected %d counters, want 1..12", len(e.PFColumns))
	}
	seen := map[int]bool{}
	for _, c := range e.PFColumns {
		if seen[c] {
			t.Fatalf("duplicate counter %d selected", c)
		}
		seen[c] = true
	}
	if len(e.ExpertColumns) != 8 {
		t.Fatalf("expert columns = %d, want 8", len(e.ExpertColumns))
	}
}

func TestTable3BudgetMatchesPaper(t *testing.T) {
	rows := Table3Budget(mcu.DefaultSpec())
	if rows[0].Granularity != 10_000 || rows[0].MaxOps != 312 || rows[0].Budget != 156 {
		t.Errorf("10k row = %+v, want 312/156", rows[0])
	}
	last := rows[len(rows)-1]
	if last.Granularity != 100_000 || last.Budget != 1562 {
		t.Errorf("100k row = %+v", last)
	}
}

func TestFig7OracleShape(t *testing.T) {
	e := quickEnv(t)
	rows, mean := Fig7Oracle(e)
	if len(rows) != 20 {
		t.Fatalf("benchmarks = %d, want 20", len(rows))
	}
	// The paper's profile: mean near 45.7%, nab/bwaves near the top,
	// x264/imagick near the bottom.
	if mean < 0.30 || mean > 0.65 {
		t.Errorf("mean residency = %.3f, want near 0.457", mean)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.Residency < 0 || r.Residency > 1 {
			t.Fatalf("residency %v out of range", r.Residency)
		}
		byName[r.Benchmark] = r.Residency
	}
	if byName["644.nab_s"] < byName["625.x264_s"] {
		t.Error("nab_s should be far more gateable than x264_s")
	}
	if byName["603.bwaves_s"] < 0.6 {
		t.Errorf("bwaves residency = %.2f, want high", byName["603.bwaves_s"])
	}
	if byName["638.imagick_s"] > 0.35 {
		t.Errorf("imagick residency = %.2f, want low", byName["638.imagick_s"])
	}
}

func TestScreenProtocol(t *testing.T) {
	e := quickEnv(t)
	lts := e.lowPowerTraces(e.PFColumns)
	res, err := e.Screen(e.rfTrainer(), lts, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.PGOS.Mean <= 0.3 || res.PGOS.Mean > 1 {
		t.Errorf("screen PGOS = %.3f, implausible", res.PGOS.Mean)
	}
	if res.RSV.Mean < 0 || res.RSV.Mean > 0.5 {
		t.Errorf("screen RSV = %.3f, implausible", res.RSV.Mean)
	}
}

func TestSplitTracesProtocol(t *testing.T) {
	e := quickEnv(t)
	lts := e.lowPowerTraces(e.PFColumns)
	tune, val := splitTraces(lts, 0.2, 10, 42)
	if len(tune) == 0 || len(val) == 0 {
		t.Fatal("empty split")
	}
	tuneApps, valApps := map[string]bool{}, map[string]bool{}
	for _, lt := range tune {
		tuneApps[lt.App] = true
	}
	for _, lt := range val {
		valApps[lt.App] = true
	}
	if len(tuneApps) > 10 {
		t.Errorf("tuning apps = %d, want ≤10", len(tuneApps))
	}
	for a := range tuneApps {
		if valApps[a] {
			t.Fatalf("app %s on both sides of the split", a)
		}
	}
	// Determinism.
	tune2, _ := splitTraces(lts, 0.2, 10, 42)
	if len(tune2) != len(tune) {
		t.Error("split not deterministic")
	}
}

func TestFig4DiversityTrend(t *testing.T) {
	e := quickEnv(t)
	pts, err := Fig4Diversity(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(e.Scale.Fig4Sizes) {
		t.Fatalf("points = %d, want %d", len(pts), len(e.Scale.Fig4Sizes))
	}
	// More tuning applications should not make RSV dramatically worse.
	first, last := pts[0], pts[len(pts)-1]
	if last.RSV.Mean > first.RSV.Mean+0.10 {
		t.Errorf("RSV grew with diversity: %.3f → %.3f", first.RSV.Mean, last.RSV.Mean)
	}
}

func TestFig6SelectionRule(t *testing.T) {
	pts := []Fig6Point{
		{Hidden: []int{32}, Ops: 2000, FitsBudget: false, PGOS: FoldStats{Mean: 0.9, Std: 0.02}},
		{Hidden: []int{8}, Ops: 300, FitsBudget: true, PGOS: FoldStats{Mean: 0.82, Std: 0.08}},
		{Hidden: []int{8, 8, 4}, Ops: 651, FitsBudget: true, PGOS: FoldStats{Mean: 0.80, Std: 0.03}},
	}
	best := BestByScreen(pts)
	if len(best.Hidden) != 3 {
		t.Errorf("selection rule picked %v; want the low-variance budget-fitting 3-layer net", best.Hidden)
	}
}

func TestBuildFig8ControllersValid(t *testing.T) {
	e := quickEnv(t)
	gs, err := BuildFig8Controllers(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 5 {
		t.Fatalf("controllers = %d, want 5", len(gs))
	}
	names := map[string]bool{}
	for _, g := range gs {
		names[g.Name] = true
		if err := g.Validate(e.Spec); err != nil {
			t.Errorf("%s invalid: %v", g.Name, err)
		}
	}
	for _, want := range []string{"srch-coarse", "srch-40k", "charstar", "best-mlp", "best-rf"} {
		if !names[want] {
			t.Errorf("missing controller %s", want)
		}
	}
}

func TestIsIntBenchmark(t *testing.T) {
	if !isIntBenchmark("602.gcc_s") {
		t.Error("gcc_s is SPECint")
	}
	if isIntBenchmark("603.bwaves_s") {
		t.Error("bwaves_s is SPECfp")
	}
}

func TestFig9FromSummaries(t *testing.T) {
	a := &core.Summary{PerBenchmark: []*core.BenchResult{{Name: "654.roms_s", RSV: 0.5}}}
	b := &core.Summary{PerBenchmark: []*core.BenchResult{{Name: "654.roms_s", RSV: 0.0}}}
	rows := Fig9PerBenchmark(a, b)
	if len(rows) != 1 || rows[0].CharstarRSV != 0.5 || rows[0].BestRFRSV != 0 {
		t.Errorf("fig9 rows = %+v", rows)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var sb strings.Builder
	PrintTable3(&sb, Table3Budget(mcu.DefaultSpec()), nil)

	PrintFig4(&sb, []Fig4Point{{TuningApps: 5}})
	PrintFig7(&sb, []Fig7Row{{Benchmark: "x", Residency: 0.5}}, 0.5)
	PrintFig10(&sb, []Fig10Step{{Label: "base", RSV: 0.1}, {Label: "next", RSV: 0.05}})
	PrintTable5(&sb, []Table5Row{{PSLA: 0.9}})
	PrintTable6(&sb, []Table6Row{{Benchmark: "x"}})
	out := sb.String()
	for _, want := range []string{"Table 3", "Figure 4", "Figure 7", "Figure 10", "Table 5", "Table 6"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
}

// TestFig7MeanDeterministic: the mean residency is the same float on every
// call. Residencies like 1/3 and 1/7 round differently depending on the
// order they are summed in, so summing in map order made the results file
// differ between runs in the last digits.
func TestFig7MeanDeterministic(t *testing.T) {
	e := &Env{}
	for b := 0; b < 12; b++ {
		tt := &dataset.TraceTelemetry{Benchmark: fmt.Sprintf("bench%02d", b)}
		for i := 0; i < 3+b; i++ {
			low := 0.5 // below the SLA: keep high-performance mode
			if i%3 == 0 {
				low = 1 // meets the SLA: gate
			}
			tt.HighPerf = append(tt.HighPerf, dataset.IntervalRecord{IPC: 1})
			tt.LowPower = append(tt.LowPower, dataset.IntervalRecord{IPC: low})
		}
		e.SPECTel = append(e.SPECTel, tt)
	}
	_, want := Fig7Oracle(e)
	for i := 0; i < 50; i++ {
		if _, mean := Fig7Oracle(e); mean != want {
			t.Fatalf("call %d: mean residency %v, first call %v", i, mean, want)
		}
	}
}
