package core

import (
	"bytes"
	"testing"

	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
	"clustergate/internal/uarch"
)

func TestFirmwareImageRoundTripRF(t *testing.T) {
	e := env(t)
	g, err := BuildBestRF(e.in)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveController(&buf, g); err != nil {
		t.Fatal(err)
	}
	t.Logf("firmware image size: %d bytes", buf.Len())

	loaded, err := LoadController(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != g.Name || loaded.Granularity != g.Granularity ||
		loaded.ThresholdHigh != g.ThresholdHigh || loaded.ThresholdLow != g.ThresholdLow {
		t.Fatalf("metadata mismatch: %+v vs %+v", loaded, g)
	}
	if err := loaded.Validate(mcu.DefaultSpec()); err != nil {
		t.Fatal(err)
	}

	// Identical decisions on identical inputs.
	lts := e.labeledSample(t)
	for _, x := range lts[:200] {
		a := g.HighPerf.ScoreWindow(x, nil)
		b := loaded.HighPerf.ScoreWindow(x, nil)
		if a != b {
			t.Fatalf("loaded high-perf model scores differ: %v vs %v", a, b)
		}
		a = g.LowPower.ScoreWindow(x, nil)
		b = loaded.LowPower.ScoreWindow(x, nil)
		if a != b {
			t.Fatalf("loaded low-power model scores differ: %v vs %v", a, b)
		}
	}

	// Identical deployment behaviour end to end.
	orig, err := DeployWithOptions(g, e.spec.Traces[0], e.specTel[0], e.cfg, e.pm, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	redeployed, err := DeployWithOptions(loaded, e.spec.Traces[0], e.specTel[0], e.cfg, e.pm, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Pred) != len(redeployed.Pred) {
		t.Fatal("prediction counts differ after reload")
	}
	for i := range orig.Pred {
		if orig.Pred[i] != redeployed.Pred[i] {
			t.Fatalf("prediction %d differs after firmware reload", i)
		}
	}
}

func TestFirmwareImageRoundTripMLP(t *testing.T) {
	e := env(t)
	g, err := BuildBestMLP(e.in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveController(&buf, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadController(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range e.labeledSample(t)[:100] {
		if g.LowPower.ScoreWindow(x, nil) != loaded.LowPower.ScoreWindow(x, nil) {
			t.Fatal("MLP scores differ after reload")
		}
	}
}

func TestLoadControllerRejectsGarbage(t *testing.T) {
	if _, err := LoadController(bytes.NewReader([]byte("not a firmware image"))); err == nil {
		t.Error("garbage accepted as firmware image")
	}
}

// labeledSample exposes a deterministic sample of model inputs for
// equivalence checks.
func (e *testEnv) labeledSample(t *testing.T) [][]float64 {
	t.Helper()
	lts := dsBuildSample(e)
	if len(lts) < 200 {
		t.Fatal("not enough samples for equivalence check")
	}
	return lts
}

// dsBuildSample flattens windowed low-power samples from the shared env.
func dsBuildSample(e *testEnv) [][]float64 {
	lts := dataset.BuildLabeled(e.hdtrTel, e.cs, dataset.BuildOptions{
		Mode: uarch.ModeLowPower, SLA: dataset.SLA{PSLA: 0.9},
		Columns: e.cols, WindowIntervals: 4,
	})
	var out [][]float64
	for _, lt := range lts {
		out = append(out, lt.X...)
	}
	return out
}
