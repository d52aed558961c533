package experiments

import (
	"reflect"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

// alwaysGate is the worst-case controller for fault studies: it requests
// low-power mode on every window, so every truth-0 window decision is a
// false positive unless the guardrail overrides it.
type alwaysGate struct{}

func (alwaysGate) ScoreWindow([]float64, [][]float64) float64 { return 1 }

func (alwaysGate) Reads() core.Inputs { return 0 }

// faultTestEnv builds a minimal Env — a small simulated SPEC subset, no
// training corpus — sufficient for FaultStudy.
func faultTestEnv(t *testing.T, workers int) (*Env, *core.GatingController) {
	t.Helper()
	if testing.Short() {
		t.Skip("fault-study corpus simulation skipped in -short mode")
	}
	cfg := dataset.DefaultConfig()
	cfg.Workers = workers
	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 350_000, Seed: 13})
	sub := &trace.Corpus{Name: "spec-sub"}
	seen := map[string]bool{}
	for _, tr := range spec.Traces {
		if !seen[tr.App.Benchmark] {
			seen[tr.App.Benchmark] = true
			sub.Traces = append(sub.Traces, tr)
		}
		if len(sub.Traces) == 8 {
			break
		}
	}
	cs := telemetry.NewStandardCounterSet()
	e := &Env{
		Scale: Scale{Name: "tiny", Workers: workers},
		Cfg:   cfg,
		CS:    cs,
		PM:    power.DefaultModel(),
		Seed:  7,
		SPEC:  sub, SPECTel: dataset.SimulateCorpus(sub, cfg),
	}
	g := &core.GatingController{
		Name:     "always-gate",
		HighPerf: alwaysGate{}, LowPower: alwaysGate{},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: cfg.Interval, Granularity: 2 * cfg.Interval,
		Counters: cs,
		SLA:      dataset.SLA{PSLA: 0.9},
	}
	return e, g
}

// TestFaultStudyGuardrailReducesExposure is the robustness claim at unit
// scale: under every fault class, the guardrail's fallback strictly
// reduces the effective SLA-violation rate of a worst-case (always-gate)
// controller, trips are recorded, and faults were actually injected —
// with the trip and injection counters visible in the run manifest.
func TestFaultStudyGuardrailReducesExposure(t *testing.T) {
	e, g := faultTestEnv(t, 0)

	run := obs.NewRun(obs.Info{Tool: "test"})
	obs.SetCurrent(run)
	defer obs.SetCurrent(nil)
	tripsBefore := obs.CounterValue("core.guardrail.trips")
	injectedBefore := obs.CounterValue("fault.injected")

	r, err := FaultStudy(e, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Classes) != 4 {
		t.Fatalf("classes = %d, want 4", len(r.Classes))
	}
	var offSum, onSum float64
	for _, c := range r.Classes {
		if c.RSVOff == 0 {
			t.Errorf("%s: bare run shows no SLA exposure, fault pressure too weak", c.Class)
		}
		if c.RSVOn > c.RSVOff {
			t.Errorf("%s: guardrail increased exposure: off %.3f on %.3f", c.Class, c.RSVOff, c.RSVOn)
		}
		if c.Trips == 0 {
			t.Errorf("%s: guardrail never tripped", c.Class)
		}
		if c.Injected == 0 {
			t.Errorf("%s: no faults injected", c.Class)
		}
		if c.TaskFaults == 0 {
			t.Errorf("%s: no task faults absorbed by retries", c.Class)
		}
		offSum += c.RSVOff
		onSum += c.RSVOn
	}
	if onSum >= offSum {
		t.Errorf("guardrail did not strictly reduce overall exposure: off %.3f on %.3f", offSum, onSum)
	}
	if r.Watchdog.Ops <= 0 {
		t.Errorf("watchdog cost = %+v", r.Watchdog)
	}

	if r.Blackout == nil {
		t.Fatal("fault study missing the blackout policy comparison")
	}
	if r.Blackout.Overrides == 0 {
		t.Error("safe-mode arm saw no telemetry blackouts under the outage plan")
	}
	if r.Blackout.RSVSafe > r.Blackout.RSVHold {
		t.Errorf("safe-mode-on-blackout raised exposure over hold-last-mode: safe %.3f hold %.3f",
			r.Blackout.RSVSafe, r.Blackout.RSVHold)
	}
	if r.Blackout.Windows == 0 {
		t.Error("blackout comparison measured no SLA windows")
	}

	m := run.Finish()
	if m.Counters["core.guardrail.trips"] <= tripsBefore {
		t.Error("manifest does not show guardrail trips")
	}
	if m.Counters["fault.injected"] <= injectedBefore {
		t.Error("manifest does not show injected faults")
	}
}

// TestFaultStudyWorkerIndependent locks the determinism contract through
// the whole fault pipeline: the study's results are identical at any
// worker count, because fault schedules are pure functions of seeds and
// the retried fan-out aggregates in index order.
func TestFaultStudyWorkerIndependent(t *testing.T) {
	e1, g := faultTestEnv(t, 1)
	r1, err := FaultStudy(e1, g)
	if err != nil {
		t.Fatal(err)
	}
	e4, g4 := faultTestEnv(t, 4)
	r4, err := FaultStudy(e4, g4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("fault study diverges across worker counts:\n%+v\nvs\n%+v", r1, r4)
	}
}
