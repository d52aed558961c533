package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/ml"
	"clustergate/internal/ml/linear"
	"clustergate/internal/telemetry"
)

// fleetTestEnv extends the fault-study env with a serialisable
// well-behaved controller (a constant-low logistic that never gates, so
// its soak health is clean) and a quick-scale fleet.
func fleetTestEnv(t *testing.T, workers int) (*Env, *core.GatingController) {
	t.Helper()
	e, _ := faultTestEnv(t, workers)
	e.Scale.SweepTraces = 4
	e.Scale.FleetMachines = 24
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
		W: make([]float64, n), B: -4, // sigmoid(-4) ≈ 0.02: never gate
		Scaler: &ml.Scaler{Mean: make([]float64, n), Std: std},
	}
	g := &core.GatingController{
		Name:     "fleet-never-gate",
		HighPerf: core.PointPredictor{M: lg}, LowPower: core.PointPredictor{M: lg},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: e.Cfg.Interval, Granularity: 2 * e.Cfg.Interval,
		Counters: e.CS, Columns: cols,
		SLA: dataset.SLA{PSLA: 0.9},
	}
	return e, g
}

// TestFleetRolloutDeterministic locks the study's contract: identical
// results, byte-identical rendering, and byte-identical JSON (the
// BENCH_fleet_rollout.json artifact) at any worker count — plus the
// paper-facing acceptance claims: at the same flash rate, the staged
// gated policy finishes within one soak of the big bang and exposes
// fewer machines to transport corruption than the unverified big-bang,
// and a semantically bad image that the big-bang ships to the whole
// fleet is caught in the canary ring and rolled back.
func TestFleetRolloutDeterministic(t *testing.T) {
	e1, g1 := fleetTestEnv(t, 1)
	r1, err := FleetRollout(e1, g1)
	if err != nil {
		t.Fatal(err)
	}
	e4, g4 := fleetTestEnv(t, 4)
	r4, err := FleetRollout(e4, g4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("rollout study diverges across worker counts:\n%+v\nvs\n%+v", r1, r4)
	}
	var b1, b4 bytes.Buffer
	PrintFleetRollout(&b1, r1)
	PrintFleetRollout(&b4, r4)
	if !bytes.Equal(b1.Bytes(), b4.Bytes()) {
		t.Errorf("rollout rendering not byte-identical across worker counts:\n%s\nvs\n%s",
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
		t.Errorf("rollout JSON not byte-identical across worker counts:\n%s\nvs\n%s", j1, j4)
	}

	rows := map[string]FleetRolloutRow{}
	for _, row := range r1.Rows {
		rows[row.Key] = row
	}
	bigbang, okB := rows["bigbang-20"]
	staged, okS := rows["staged-20"]
	if !okB || !okS {
		t.Fatalf("frontier missing the bigbang-20/staged-20 anchor arms: %+v", r1.Rows)
	}

	// The headline trade: at the same flash rate, a staged rollout costs
	// at most its last ring's soak (SoakTicks+1 ticks) over the big bang,
	// and exposes strictly fewer machines.
	soak := 0
	for _, a := range rolloutArms(r1.Machines) {
		if a.Key == staged.Key {
			soak = a.cfg.SoakTicks
		}
	}
	if staged.TimeSteps > bigbang.TimeSteps+soak+1 {
		t.Errorf("staged (%d ticks) must finish within SoakTicks+1 = %d ticks of big-bang (%d ticks) for the exposure comparison",
			staged.TimeSteps, soak+1, bigbang.TimeSteps)
	}
	if !staged.Completed {
		t.Errorf("staged gated rollout of a healthy image did not complete: %+v", staged)
	}
	if !bigbang.Completed {
		t.Errorf("big-bang rollout did not complete: %+v", bigbang)
	}
	if staged.Exposed >= bigbang.Exposed {
		t.Errorf("staged rollout exposed %d machines, big-bang %d; staged must expose strictly fewer",
			staged.Exposed, bigbang.Exposed)
	}
	if bigbang.Exposed == 0 {
		t.Error("unverified big-bang at 20% corruption exposed no machines")
	}
	if staged.CRCRejects == 0 {
		t.Error("verified staged rollout at 20% corruption saw no CRC rejections")
	}

	// The bad-image blast radius: ungated ships it fleet-wide; the gate
	// catches it in the canary ring and rolls back every flashed machine.
	if bigbang.BadCaught || bigbang.BadFlashed != r1.Machines {
		t.Errorf("ungated big-bang should ship the bad image to all %d machines: %+v",
			r1.Machines, bigbang)
	}
	if !staged.BadCaught {
		t.Errorf("staged gate never caught the miscalibrated image: %+v", staged)
	}
	if staged.BadCaughtRing != 0 {
		t.Errorf("bad image caught at ring %d, want the canary ring 0", staged.BadCaughtRing)
	}
	if staged.BadFlashed >= r1.Machines {
		t.Errorf("staged rollout flashed the bad image to the whole fleet (%d machines)", staged.BadFlashed)
	}
	if staged.BadRollbackFlashes != staged.BadFlashed {
		t.Errorf("bad-image rollback flashed %d machines, want every flashed machine (%d)",
			staged.BadRollbackFlashes, staged.BadFlashed)
	}
}
