package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/trace"
)

// crashingOracle wraps the exact oracle but fails Deploy on one designated
// trace, modelling a machine whose installed image cannot deploy.
type crashingOracle struct {
	core.ExactOracle
	failOn *trace.Trace
	err    error
}

func (o *crashingOracle) Deploy(g *core.GatingController, tr *trace.Trace,
	ref *dataset.TraceTelemetry, cfg dataset.Config, pm *power.Model,
	opts core.DeployOptions) (*core.GuardedDeploymentResult, error) {
	if tr == o.failOn {
		return nil, o.err
	}
	return o.ExactOracle.Deploy(g, tr, ref, cfg, pm, opts)
}

// TestCrashEventCarriesDeployError locks the crash-reason plumbing: a soak
// deployment that errors is reduced to a crashed machine as before (the
// Result bytes are oracle-error-agnostic), but when an event log is active
// the swallowed error surfaces as a fleet.machine.crash event's reason
// attribute instead of vanishing.
func TestCrashEventCarriesDeployError(t *testing.T) {
	wl, img := testWorkload(t)
	deployErr := errors.New("simulated PMU wedge on deploy")
	wl.Oracle = &crashingOracle{failOn: wl.Traces[1], err: deployErr}

	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)

	cfg := Config{
		Name: "crash-test", Machines: 8, Verify: true,
		Gate: looseGate(), Seed: 3,
	}
	res, err := Run(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	// Machines 1 and 5 soak trace 1 (machine i soaks trace i % 4).
	wantCrashed := map[int]bool{1: true, 5: true}
	for _, m := range res.Machines {
		if m.Crashed != wantCrashed[m.ID] {
			t.Errorf("machine %d crashed = %v, want %v", m.ID, m.Crashed, wantCrashed[m.ID])
		}
	}
	var reasons []string
	for _, ev := range log.Events() {
		if ev.Kind != "fleet.machine.crash" {
			continue
		}
		machine, _ := ev.Attrs["machine"].(int)
		if !wantCrashed[machine] {
			t.Errorf("crash event for healthy machine %d: %+v", machine, ev)
		}
		reasons = append(reasons, fmt.Sprint(ev.Attrs["reason"]))
	}
	if len(reasons) != len(wantCrashed) {
		t.Fatalf("got %d fleet.machine.crash events, want %d", len(reasons), len(wantCrashed))
	}
	for _, r := range reasons {
		if r != deployErr.Error() {
			t.Errorf("crash reason = %q, want the deploy error %q", r, deployErr)
		}
	}
}

// TestRollbackBookkeepingConsistency sweeps seeds and worker counts and
// checks the Result's aggregate counters against its per-machine states:
// Flashed/Installed/Exposed match their per-machine counts, every
// rolled-back machine was flashed, no machine is both Installed and
// RolledBack, and a rollback's RollbackFlashes covers exactly the flashed
// machines.
func TestRollbackBookkeepingConsistency(t *testing.T) {
	wl, img := testWorkload(t)
	sawRollback, sawComplete := false, false
	for seed := int64(1); seed <= 24; seed++ {
		for _, workers := range []int{1, 4} {
			cfg := Config{
				Machines: 12, Rings: []int{2, 4, 6}, Verify: true,
				Gate:        &GatePolicy{MaxCRCRejectRate: 0.3, MaxTripsPerMachine: 1e9, MaxSLARate: 1, MaxMisgateRate: 1},
				CorruptProb: 0.4, FlashFailProb: 0.3, FlashRetries: 2,
				Seed: seed, Workers: workers,
			}
			res, err := Run(cfg, img, wl)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d workers %d", seed, workers)
			var flashed, installed, exposed, rolledBack int
			for _, m := range res.Machines {
				if m.Flashed {
					flashed++
				}
				if m.Installed {
					installed++
				}
				if m.Exposed {
					exposed++
				}
				if m.RolledBack {
					rolledBack++
					if !m.Flashed {
						t.Errorf("%s: machine %d rolled back without being flashed", name, m.ID)
					}
					if m.Installed {
						t.Errorf("%s: machine %d both Installed and RolledBack", name, m.ID)
					}
				}
			}
			if res.Flashed != flashed || res.Installed != installed || res.Exposed != exposed {
				t.Errorf("%s: aggregate (F=%d I=%d E=%d) != per-machine (F=%d I=%d E=%d)",
					name, res.Flashed, res.Installed, res.Exposed, flashed, installed, exposed)
			}
			if res.RolledBack {
				sawRollback = true
				if rolledBack != flashed {
					t.Errorf("%s: %d machines rolled back but %d were flashed", name, rolledBack, flashed)
				}
				if res.RollbackFlashes != flashed {
					t.Errorf("%s: RollbackFlashes = %d, want %d (every flashed machine)",
						name, res.RollbackFlashes, flashed)
				}
				if res.Installed != 0 {
					t.Errorf("%s: %d machines still installed after rollback", name, res.Installed)
				}
				if res.Completed {
					t.Errorf("%s: rolled-back rollout reported Completed", name)
				}
			} else {
				sawComplete = true
				if rolledBack != 0 {
					t.Errorf("%s: %d machines rolled back without a rollout rollback", name, rolledBack)
				}
				if res.RollbackFlashes != 0 {
					t.Errorf("%s: RollbackFlashes = %d on a promoted rollout", name, res.RollbackFlashes)
				}
				if res.Installed != flashed {
					t.Errorf("%s: Installed %d != Flashed %d on a promoted rollout",
						name, res.Installed, flashed)
				}
			}
		}
	}
	// The sweep must exercise both outcomes or the invariants above were
	// only half-tested.
	if !sawRollback || !sawComplete {
		t.Fatalf("seed sweep covered rollback=%v complete=%v; need both", sawRollback, sawComplete)
	}
}

// countingOracle counts deployments and fails each at once, so a soak
// costs nothing but the memo's bookkeeping.
type countingOracle struct {
	core.ExactOracle
	n atomic.Int64
}

func (o *countingOracle) Deploy(*core.GatingController, *trace.Trace, *dataset.TraceTelemetry,
	dataset.Config, *power.Model, core.DeployOptions) (*core.GuardedDeploymentResult, error) {
	o.n.Add(1)
	return nil, errors.New("counted")
}

// TestPristineDeploysEachTraceOnce hammers Pristine from many goroutines:
// each trace must be deployed exactly once per Soaker, or a run's event
// log would hold a duplicate deployment's events.
func TestPristineDeploysEachTraceOnce(t *testing.T) {
	const traces, callers, rounds = 3, 8, 300
	for r := 0; r < rounds; r++ {
		o := &countingOracle{}
		s := NewSoaker(Workload{Traces: make([]*trace.Trace, traces), Tel: make([]*dataset.TraceTelemetry, traces), Oracle: o},
			core.DefaultGuardrail())
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < 4*traces; k++ {
					s.Pristine(nil, (c+k)%traces)
				}
			}(c)
		}
		wg.Wait()
		if n := o.n.Load(); n != traces {
			t.Fatalf("round %d: %d deployments for %d traces", r, n, traces)
		}
	}
}
