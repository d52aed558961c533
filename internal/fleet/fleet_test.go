package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/ml"
	"clustergate/internal/ml/linear"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

// testWorkload builds a small simulated SPEC workload plus a sealed
// well-behaved controller image: a constant-low logistic (never gates), so
// a healthy soak shows no SLA exposure and gate failures in tests come
// from the transport model alone.
func testWorkload(t *testing.T) (Workload, []byte) {
	t.Helper()
	if testing.Short() {
		t.Skip("fleet workload simulation skipped in -short mode")
	}
	cfg := dataset.DefaultConfig()
	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 200_000, Seed: 13})
	sub := &trace.Corpus{Name: "spec-sub", Traces: spec.Traces[:4]}
	wl := Workload{
		Traces: sub.Traces,
		Tel:    dataset.SimulateCorpus(sub, cfg),
		Cfg:    cfg,
		PM:     power.DefaultModel(),
	}
	return wl, testImage(t, cfg)
}

// testImage seals testWorkload's never-gating controller; it simulates
// nothing, so flash-step tests that need only the image run in -short.
func testImage(t *testing.T, cfg dataset.Config) []byte {
	t.Helper()
	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	n := len(cols)
	std := make([]float64, n)
	for i := range std {
		std[i] = 1
	}
	lg := &linear.Logistic{
		W: make([]float64, n), B: -4, // sigmoid(-4) ≈ 0.02: never gate
		Scaler: &ml.Scaler{Mean: make([]float64, n), Std: std},
	}
	g := &core.GatingController{
		Name:     "fleet-never-gate",
		HighPerf: core.PointPredictor{M: lg}, LowPower: core.PointPredictor{M: lg},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: cfg.Interval, Granularity: 2 * cfg.Interval,
		Counters: cs, Columns: cols,
		SLA: dataset.SLA{PSLA: 0.9},
	}
	var buf bytes.Buffer
	if err := core.SaveController(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// looseGate promotes unless transport or soak health collapses entirely.
func looseGate() *GatePolicy {
	return &GatePolicy{MaxCRCRejectRate: 1, MaxTripsPerMachine: 1e9, MaxSLARate: 1, MaxMisgateRate: 1}
}

// TestRolloutWorkerIndependence locks the determinism contract: a full
// staged gated rollout and an ungated unverified big-bang both produce
// deeply equal Results at workers 1 and 4.
func TestRolloutWorkerIndependence(t *testing.T) {
	wl, img := testWorkload(t)
	staged := Config{
		Machines: 12, Rings: []int{2, 4, 6}, Verify: true,
		Gate:        looseGate(),
		CorruptProb: 0.3, FlashFailProb: 0.3, FlashRetries: 6,
		Seed: 1,
	}
	bigbang := Config{
		Machines:    12,
		CorruptProb: 0.3, FlashFailProb: 0.3, FlashRetries: 3,
		FlashPerStep: 5,
		Seed:         41,
	}
	for name, cfg := range map[string]Config{"staged": staged, "bigbang": bigbang} {
		c1 := cfg
		c1.Workers = 1
		r1, err := Run(c1, img, wl)
		if err != nil {
			t.Fatal(err)
		}
		c4 := cfg
		c4.Workers = 4
		r4, err := Run(c4, img, wl)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r1, r4) {
			t.Errorf("%s rollout diverges across worker counts:\n%+v\nvs\n%+v", name, r1, r4)
		}
		if name == "staged" {
			if !r1.Completed || r1.Installed != 12 {
				t.Errorf("staged rollout under a loose gate should complete: %+v", r1)
			}
			if r1.Exposed != 0 {
				t.Errorf("verified rollout exposed %d machines to corrupted payloads", r1.Exposed)
			}
			if r1.CRCRejects == 0 {
				t.Error("verified rollout at 30% corruption saw no CRC rejections")
			}
			if r1.FlashRetries == 0 {
				t.Error("rollout at 30% transient failure saw no flash retries")
			}
		}
	}
}

// TestVerifyBoundsExposure is the CRC-envelope claim at fleet scale: with
// the same seed and corruption pressure, the unverified pipeline installs
// corrupted payloads while the verified one rejects every single one.
func TestVerifyBoundsExposure(t *testing.T) {
	wl, img := testWorkload(t)
	base := Config{
		Machines:    16,
		CorruptProb: 0.35, FlashFailProb: 0.2, FlashRetries: 2,
		Seed: 7,
	}
	unv := base
	runv, err := Run(unv, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	ver := base
	ver.Verify = true
	rver, err := Run(ver, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	if runv.Exposed == 0 {
		t.Error("unverified rollout at 35% corruption exposed no machines")
	}
	if rver.Exposed != 0 {
		t.Errorf("verified rollout exposed %d machines", rver.Exposed)
	}
	if rver.CRCRejects == 0 {
		t.Error("verified rollout recorded no CRC rejections")
	}
	if runv.CRCRejects != 0 {
		t.Errorf("unverified rollout recorded %d CRC rejections", runv.CRCRejects)
	}
}

// TestGateFailureRollsBackFleet is the acceptance scenario: a staged
// verified rollout under heavy corruption passes its canary, fails a later
// ring's transport gate, and rolls back every flashed machine — with the
// rollback flashes themselves failing transiently and being retried.
func TestGateFailureRollsBackFleet(t *testing.T) {
	wl, img := testWorkload(t)
	var r *Result
	found := int64(-1)
	for seed := int64(1); seed <= 256; seed++ {
		cfg := Config{
			Machines: 12, Rings: []int{2, 4, 6}, Verify: true,
			Gate:        &GatePolicy{MaxCRCRejectRate: 0.26, MaxTripsPerMachine: 1e9, MaxSLARate: 1, MaxMisgateRate: 1},
			CorruptProb: 0.5, FlashFailProb: 0.45, FlashRetries: 2,
			Seed: seed,
		}
		rr, err := Run(cfg, img, wl)
		if err != nil {
			t.Fatal(err)
		}
		if rr.RolledBack && rr.GateFailedRing >= 1 && rr.RollbackRetries > 0 {
			r, found = rr, seed
			break
		}
	}
	if r == nil {
		t.Fatal("no seed in 1..256 produced a post-canary gate failure with retried rollback flashes")
	}
	t.Logf("seed %d: gate failed at ring %d (%s), %d rollback flashes, %d retried",
		found, r.GateFailedRing, r.GateFailure, r.RollbackFlashes, r.RollbackRetries)

	if r.Completed {
		t.Error("rolled-back rollout reported Completed")
	}
	if r.Installed != 0 {
		t.Errorf("%d machines still run the new image after rollback", r.Installed)
	}
	flashed := 0
	for _, m := range r.Machines {
		if m.Flashed {
			flashed++
			if !m.RolledBack {
				t.Errorf("machine %d (ring %d) was flashed but not rolled back", m.ID, m.Ring)
			}
			if m.Installed {
				t.Errorf("machine %d still installed after rollback", m.ID)
			}
		} else if m.RolledBack {
			t.Errorf("machine %d rolled back without ever being flashed", m.ID)
		}
	}
	if flashed == 0 {
		t.Fatal("gate failure with no flashed machines")
	}
	if r.RollbackFlashes != flashed {
		t.Errorf("rollback flashed %d machines, want every flashed machine (%d)",
			r.RollbackFlashes, flashed)
	}
	if !r.Rings[0].Promoted {
		t.Error("scenario requires the canary ring to have been promoted")
	}
	if r.Rings[r.GateFailedRing].Promoted {
		t.Error("failing ring reported Promoted")
	}
}
