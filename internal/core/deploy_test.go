package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// telemetryHashPredictor gates on a hash of the observed window, so its
// decisions flip often and follow the telemetry exactly: any difference in
// what the controller observes changes the mode schedule that follows.
type telemetryHashPredictor struct{}

func (telemetryHashPredictor) ScoreWindow(agg []float64, _ [][]float64) float64 {
	s := 0.0
	for i, v := range agg {
		s += float64(i+1) * v
	}
	return math.Mod(math.Abs(s)*1e4, 1)
}

// deploySuite is a small self-contained deployment set-up: a few short
// SPEC traces with their fixed-mode telemetry.
type deploySuite struct {
	cfg    dataset.Config
	traces []*trace.Trace
	tel    []*dataset.TraceTelemetry
	ctrls  []*GatingController
	pm     *power.Model
}

func newDeploySuite(t *testing.T, seed int64) *deploySuite {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Warmup = 20_000
	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 150_000, Seed: seed})
	s := &deploySuite{cfg: cfg, pm: power.DefaultModel()}
	seen := map[string]bool{}
	for _, tr := range spec.Traces {
		if b := tr.App.Benchmark; !seen[b] && len(s.traces) < 3 {
			seen[b] = true
			s.traces = append(s.traces, tr)
			s.tel = append(s.tel, dataset.SimulateTrace(tr, cfg))
		}
	}
	cs := telemetry.NewStandardCounterSet()
	cols, err := ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := func(name string, p Predictor, granularity int) *GatingController {
		return &GatingController{
			Name: name, HighPerf: p, LowPower: p,
			ThresholdHigh: 0.5, ThresholdLow: 0.5,
			Interval: cfg.Interval, Granularity: granularity,
			Counters: cs, Columns: cols, SLA: dataset.SLA{PSLA: 0.9},
		}
	}
	s.ctrls = []*GatingController{
		ctrl("hash", telemetryHashPredictor{}, cfg.Interval),
		ctrl("hash-20k", telemetryHashPredictor{}, 2*cfg.Interval),
		ctrl("always-gate", scriptedPredictor(1), cfg.Interval),
	}
	return s
}

// liveDeploy deploys through the same decision loop over a live runner,
// which generates and probes the trace as it goes: the path the tape
// replaces.
func (s *deploySuite) liveDeploy(g *GatingController, i int, opts DeployOptions) (*GuardedDeploymentResult, error) {
	tr := s.traces[i]
	return DeployFrom(g, tr, s.tel[i], s.pm, opts, func() IntervalSource {
		return runnerSource{uarch.NewRunner(s.cfg.Core, uarch.ModeHighPerf, trace.NewStream(tr), s.cfg.Warmup, g.Interval)}
	})
}

// TestDeployTapeMatchesLive is the deployment-level differential test:
// every deployment replayed from the trace's tape must equal, DeepEqual,
// the same deployment executed live — under fault plans that drop and
// glitch telemetry and derate DRAM, with the guardrail on and off, for
// controllers whose mode schedules follow the telemetry.
func TestDeployTapeMatchesLive(t *testing.T) {
	s := newDeploySuite(t, 5)
	plans := []fault.Plan{
		{},
		{Seed: 3, Rules: []fault.Rule{
			{Class: fault.TelemetryDrop, Rate: 0.15, Burst: 3},
			{Class: fault.CounterGlitch, Rate: 0.15, Burst: 3},
			{Class: fault.DRAMDerate, Rate: 0.2, Burst: 4, Factor: 4},
		}},
	}
	gr := DefaultGuardrail()
	var switches, injected, trips int
	for _, guard := range []*Guardrail{nil, &gr} {
		for p, plan := range plans {
			var inj *fault.Injector
			if len(plan.Rules) > 0 {
				var err error
				if inj, err = fault.NewInjector(plan); err != nil {
					t.Fatal(err)
				}
			}
			opts := DeployOptions{Guardrail: guard, Injector: inj}
			for _, g := range s.ctrls {
				for i, tr := range s.traces {
					got, err := DeployWithOptions(g, tr, s.tel[i], s.cfg, s.pm, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := s.liveDeploy(g, i, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("guardrail %v plan %d %s on %s: tape deployment differs from live\ntape: %+v\nlive: %+v",
							guard != nil, p, g.Name, tr.Name, got, want)
					}
					switches += got.Switches
					injected += int(got.InjectedFaults)
					trips += got.GuardrailTrips
				}
			}
		}
	}
	if switches == 0 || injected == 0 || trips == 0 {
		t.Errorf("%d mode switches, %d injected faults, %d guardrail trips: the suite must exercise all three",
			switches, injected, trips)
	}
}

// TestDeployTapeRecordedOnce checks that concurrent first deployments of a
// trace share one recording, and that later deployments replay it.
func TestDeployTapeRecordedOnce(t *testing.T) {
	s := newDeploySuite(t, 9)
	g := s.ctrls[0]
	records := func() int64 { return obs.CounterValue("uarch.tape.records") }
	before := records()
	results := make([]*GuardedDeploymentResult, 6)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := DeployWithOptions(g, s.traces[0], s.tel[0], s.cfg, s.pm, DeployOptions{})
			if err != nil {
				t.Error(err)
			}
			results[w] = r
		}()
	}
	wg.Wait()
	if n := records() - before; n != 1 {
		t.Errorf("%d concurrent first deployments recorded %d tapes, want 1", len(results), n)
	}
	for _, r := range results[1:] {
		if !reflect.DeepEqual(r, results[0]) {
			t.Fatal("concurrent deployments of one trace differ")
		}
	}
	if _, err := DeployWithOptions(g, s.traces[0], s.tel[0], s.cfg, s.pm, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := records() - before; n != 1 {
		t.Errorf("a later deployment recorded again: %d tapes in all", n)
	}
}

// TestDeployTapeFollowsConfig pins the trace's single tape slot: a
// deployment under another warmup records a tape of its own in place of
// the held one, and each deployment still equals its live counterpart.
func TestDeployTapeFollowsConfig(t *testing.T) {
	s := newDeploySuite(t, 11)
	g := s.ctrls[0]
	records := func() int64 { return obs.CounterValue("uarch.tape.records") }
	before := records()
	for k, warmup := range []int{s.cfg.Warmup, 30_000, 30_000, s.cfg.Warmup} {
		cfg := s.cfg
		cfg.Warmup = warmup
		run := &deploySuite{cfg: cfg, traces: s.traces, tel: s.tel, pm: s.pm}
		got, err := DeployWithOptions(g, s.traces[0], s.tel[0], cfg, s.pm, DeployOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := run.liveDeploy(g, 0, DeployOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("deployment %d (warmup %d) differs from live", k, warmup)
		}
	}
	// Recorded for the first warmup, re-recorded for 30k, reused, and
	// re-recorded for the first warmup again.
	if n := records() - before; n != 3 {
		t.Errorf("recorded %d tapes, want 3", n)
	}
}
