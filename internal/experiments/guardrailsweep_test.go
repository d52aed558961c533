package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/ml"
	"clustergate/internal/ml/linear"
	"clustergate/internal/telemetry"
)

// sweepTestEnv extends the fault-study env with a serialisable worst-case
// controller: a constant-high logistic (always gates), so the sweep sees
// real SLA exposure and the detector check has a genuine firmware image to
// corrupt.
func sweepTestEnv(t *testing.T, workers int) (*Env, *core.GatingController) {
	t.Helper()
	e, _ := faultTestEnv(t, workers)
	e.Scale.SweepTraces = 4
	cols, err := core.ColumnsByName(e.CS, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	n := len(cols)
	std := make([]float64, n)
	for i := range std {
		std[i] = 1
	}
	lg := &linear.Logistic{
		W: make([]float64, n), B: 4, // sigmoid(4) ≈ 0.98: always gate
		Scaler: &ml.Scaler{Mean: make([]float64, n), Std: std},
	}
	g := &core.GatingController{
		Name:     "sweep-always-gate",
		HighPerf: core.PointPredictor{M: lg}, LowPower: core.PointPredictor{M: lg},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: e.Cfg.Interval, Granularity: 2 * e.Cfg.Interval,
		Counters: e.CS, Columns: cols,
		SLA: dataset.SLA{PSLA: 0.9},
	}
	return e, g
}

// TestSweepWorkerIndependence locks the sweep's contract now that the
// config×plan arms fan out through parallel.Map: identical results,
// byte-identical rendering, and byte-identical JSON (the
// BENCH_guardrail_sweep.json artifact) at any worker count; every fault
// class covered with real injections; and the CRC detector rejecting
// every seeded single-bit image flip.
func TestSweepWorkerIndependence(t *testing.T) {
	e1, g1 := sweepTestEnv(t, 1)
	r1, err := GuardrailSweep(e1, g1)
	if err != nil {
		t.Fatal(err)
	}
	e4, g4 := sweepTestEnv(t, 4)
	r4, err := GuardrailSweep(e4, g4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("sweep diverges across worker counts:\n%+v\nvs\n%+v", r1, r4)
	}
	var b1, b4 bytes.Buffer
	PrintGuardrailSweep(&b1, r1)
	PrintGuardrailSweep(&b4, r4)
	if !bytes.Equal(b1.Bytes(), b4.Bytes()) {
		t.Errorf("sweep rendering not byte-identical across worker counts:\n%s\nvs\n%s",
			b1.String(), b4.String())
	}
	j1, err := json.MarshalIndent(r1, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	j4, err := json.MarshalIndent(r4, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Errorf("sweep JSON not byte-identical across worker counts:\n%s\nvs\n%s", j1, j4)
	}

	want := []fault.Class{
		fault.TelemetryDrop, fault.CounterFreeze, fault.CounterGlitch,
		fault.PredictionPin, fault.TraceOutage, fault.DRAMDerate,
	}
	covered := map[fault.Class]bool{}
	for _, c := range r1.Classes {
		covered[c] = true
	}
	for _, c := range want {
		if !covered[c] {
			t.Errorf("fault class %s missing from the sweep", c)
		}
	}
	if r1.Traces != 4 {
		t.Errorf("sweep deployed %d traces, want the SweepTraces=4 subset", r1.Traces)
	}

	rows := map[string]SweepRow{}
	for _, row := range r1.Rows {
		if row.Injected == 0 {
			t.Errorf("config %s: no faults injected", row.Key)
		}
		if len(row.Exposure) != len(r1.Classes) {
			t.Errorf("config %s: %d exposure columns for %d classes",
				row.Key, len(row.Exposure), len(r1.Classes))
		}
		rows[row.Key] = row
	}
	off, okOff := rows["off"]
	def, okDef := rows["default"]
	if !okOff || !okDef {
		t.Fatalf("sweep missing the off/default anchor rows: %v", r1.Rows)
	}
	if def.MeanExposure > off.MeanExposure {
		t.Errorf("default guardrail raised exposure over off: %.4f vs %.4f",
			def.MeanExposure, off.MeanExposure)
	}
	if off.Trips != 0 {
		t.Errorf("guardrail-off arm recorded %d trips", off.Trips)
	}
	if def.Trips == 0 {
		t.Error("default guardrail never tripped under fault pressure")
	}

	if r1.DetectorFlips == 0 || r1.DetectorCaught != r1.DetectorFlips {
		t.Errorf("CRC detector caught %d of %d seeded single-bit flips; CRC32 must catch all",
			r1.DetectorCaught, r1.DetectorFlips)
	}
}
