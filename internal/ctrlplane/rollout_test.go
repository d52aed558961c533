package ctrlplane

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fleet"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/trace"
)

// countingOracle counts deployments and fails each at once, so a soak
// costs nothing.
type countingOracle struct {
	core.ExactOracle
	n atomic.Int64
}

func (o *countingOracle) Deploy(*core.GatingController, *trace.Trace, *dataset.TraceTelemetry,
	dataset.Config, *power.Model, core.DeployOptions) (*core.GuardedDeploymentResult, error) {
	o.n.Add(1)
	return nil, errors.New("counted")
}

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

// countingWorkload is a four-trace workload that simulates nothing: its
// oracle counts the deployments asked of it. Ungated campaigns, which
// never soak, run on it in -short mode.
func countingWorkload() (fleet.Workload, *countingOracle) {
	o := &countingOracle{}
	return fleet.Workload{
		Traces: make([]*trace.Trace, 4), Tel: make([]*dataset.TraceTelemetry, 4),
		Cfg: dataset.DefaultConfig(), Oracle: o,
	}, o
}

// stagedFracs is the 2/4/6 ring layout of a 12-machine fleet.
var stagedFracs = []float64{2.0 / 12, 4.0 / 12, 6.0 / 12}

// runService runs one campaign and returns the finished service, whose
// per-machine state the bookkeeping tests inspect.
func runService(t *testing.T, cfg Config, img []byte, wl fleet.Workload) (*Service, *Report) {
	t.Helper()
	s, err := New(cfg, img, wl)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s, rep
}

// TestRolloutWorkerIndependence locks the determinism contract for both
// kinds of campaign: a staged gated rollout and an ungated unverified
// big bang each produce deeply equal Reports and identical event logs at
// workers 1 and 4.
func TestRolloutWorkerIndependence(t *testing.T) {
	img := testController(t, dataset.DefaultConfig(), -4, "cp-good")
	t.Run("gated", func(t *testing.T) {
		wl := testWorkload(t)
		cfg := Config{
			Name: "staged", Machines: 12, RingFracs: stagedFracs, Verify: true,
			Gate: looseGate(), Quorum: 0.5,
			CorruptProb: 0.3, FlashFailProb: 0.3, FlashRetries: 6,
			Seed: 1,
		}
		r1 := workerPair(t, cfg, img, wl)
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
	})
	t.Run("ungated", func(t *testing.T) {
		wl, _ := countingWorkload()
		cfg := Config{
			Name: "bigbang", Machines: 12, RingFracs: []float64{1},
			CorruptProb: 0.3, FlashFailProb: 0.3, FlashRetries: 3,
			FlashPerTick: 5, Seed: 41,
		}
		r1 := workerPair(t, cfg, img, wl)
		if !r1.Completed || r1.Ticks != 3 {
			t.Errorf("ungated 12-machine push at 5 a tick should complete in 3 ticks: %+v", r1)
		}
		if r1.Exposed == 0 {
			t.Error("unverified push at 30% corruption exposed no machines")
		}
	})
}

// workerPair runs cfg at workers 1 and 4, fails unless the Reports and
// event logs match, and returns the first Report.
func workerPair(t *testing.T, cfg Config, img []byte, wl fleet.Workload) *Report {
	t.Helper()
	c1, c4 := cfg, cfg
	c1.Workers, c4.Workers = 1, 4
	r1, ev1 := runCampaign(t, c1, img, wl)
	r4, ev4 := runCampaign(t, c4, img, wl)
	if !reflect.DeepEqual(r1, r4) {
		t.Errorf("rollout diverges across worker counts:\n%+v\nvs\n%+v", r1, r4)
	}
	if !bytes.Equal(ev1, ev4) {
		t.Error("event logs diverge across worker counts")
	}
	return r1
}

// TestVerifyBoundsExposure is the CRC-envelope claim at fleet scale: with
// the same seed and corruption pressure, an ungated unverified push
// installs corrupted payloads while the verified one rejects every one.
func TestVerifyBoundsExposure(t *testing.T) {
	img := testController(t, dataset.DefaultConfig(), -4, "cp-good")
	wl, _ := countingWorkload()
	base := Config{
		Machines: 16, RingFracs: []float64{1},
		CorruptProb: 0.35, FlashFailProb: 0.2, FlashRetries: 2,
		Seed: 7,
	}
	_, runv := runService(t, base, img, wl)
	ver := base
	ver.Verify = true
	_, rver := runService(t, ver, img, wl)
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

// TestUngatedCampaignMatchesFlashFold holds an ungated campaign to a
// direct fold of FlashSpec.Flash over its machines: the same installs,
// exposures, rejections, crashes and transport counts, one flash wave per
// tick, and no soak — the oracle deploys nothing and no telemetry is
// ingested.
func TestUngatedCampaignMatchesFlashFold(t *testing.T) {
	img := testController(t, dataset.DefaultConfig(), -4, "cp-good")
	for _, tc := range []struct {
		machines, perTick int
		verify            bool
		corrupt, fail     float64
		retries           int
	}{
		{24, 4, false, 0.2, 0.25, 3},
		{24, 4, true, 0.45, 0.25, 3},
		{37, 5, false, 0.45, 0.45, 0},
		{37, 0, true, 0.35, 0.3, 2},
		{16, 3, false, 0, 0.5, 4},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%+v/seed%d", tc, seed)
			wl, oracle := countingWorkload()
			cfg := Config{
				Machines: tc.machines, RingFracs: []float64{1}, FlashPerTick: tc.perTick,
				Verify: tc.verify, CorruptProb: tc.corrupt, FlashFailProb: tc.fail,
				FlashRetries: tc.retries, Seed: seed, Workers: 2,
			}
			_, rep := runService(t, cfg, img, wl)

			spec := fleet.FlashSpec{
				Seed: seed, Img: img, Decode: fleet.DecodeOnce(img), Verify: tc.verify,
				CorruptProb: tc.corrupt, CorruptBits: 4, FailProb: tc.fail, Retries: tc.retries,
				Emitter: func(int64, string, map[string]any) {},
			}
			want := Report{Ticks: 1}
			if tc.perTick > 0 {
				want.Ticks = (tc.machines + tc.perTick - 1) / tc.perTick
			}
			for m := 0; m < tc.machines; m++ {
				out := spec.Flash(m, fleet.PhaseInstall)
				want.FlashAttempts += out.Attempts
				want.FlashRetries += out.Retries
				want.CRCRejects += out.CRCRejects
				if !out.Installed {
					want.Rejected++
					continue
				}
				want.Installed++
				if out.Corrupt {
					want.Exposed++
				}
				if out.Crashed {
					want.Crashed++
				}
			}
			got := Report{
				Ticks: rep.Ticks, Installed: rep.Installed, Exposed: rep.Exposed,
				Rejected: rep.Rejected, Crashed: rep.Crashed, FlashAttempts: rep.FlashAttempts,
				FlashRetries: rep.FlashRetries, CRCRejects: rep.CRCRejects,
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: campaign\n%+v\nflash fold\n%+v", name, got, want)
			}
			if !rep.Completed || rep.Flashed != rep.Installed || rep.RolledBack {
				t.Errorf("%s: ungated campaign did not complete cleanly: %+v", name, rep)
			}
			if n := oracle.n.Load(); n != 0 || rep.Intervals != 0 {
				t.Errorf("%s: ungated campaign deployed %d soaks and ingested %d intervals", name, n, rep.Intervals)
			}
		}
	}
}

// TestGateFailureRollsBackFleet is the acceptance scenario: a staged
// verified rollout under heavy corruption passes its canary, fails a later
// ring's gate, and rolls back every flashed machine — with the rollback
// flashes themselves failing transiently and being retried.
func TestGateFailureRollsBackFleet(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	var s *Service
	var r *Report
	for seed := int64(1); seed <= 256 && r == nil; seed++ {
		// One soak tick: the canary is judged, and promoted, on the tick
		// the early ring's flash lands, before that ring's gate.
		cfg := Config{
			Machines: 12, RingFracs: stagedFracs, Verify: true, SoakTicks: 1,
			Gate:        fleet.GatePolicy{MaxCRCRejectRate: 0.26, MaxTripsPerMachine: 1e9, MaxSLARate: 1, MaxMisgateRate: 1},
			CorruptProb: 0.5, FlashFailProb: 0.45, FlashRetries: 2,
			Seed: seed,
		}
		ss, rr := runService(t, cfg, img, wl)
		if rr.RolledBack && rr.HaltedRing >= 1 && rr.RollbackRetries > 0 {
			s, r = ss, rr
			t.Logf("seed %d: gate failed at ring %d (%s), %d rollback flashes, %d retried",
				seed, r.HaltedRing, r.HaltReason, r.RollbackFlashes, r.RollbackRetries)
		}
	}
	if r == nil {
		t.Fatal("no seed in 1..256 produced a post-canary gate failure with retried rollback flashes")
	}
	if r.Completed {
		t.Error("rolled-back rollout reported Completed")
	}
	if r.Installed != 0 {
		t.Errorf("%d machines still run the new image after rollback", r.Installed)
	}
	flashed := 0
	for m, mc := range s.machines {
		if mc.flashed {
			flashed++
			if !mc.rolledBack || mc.installed {
				t.Errorf("machine %d (ring %d) flashed but rolledBack=%v installed=%v",
					m, mc.ring, mc.rolledBack, mc.installed)
			}
		} else if mc.rolledBack {
			t.Errorf("machine %d rolled back without ever being flashed", m)
		}
	}
	if flashed == 0 {
		t.Fatal("gate failure with no flashed machines")
	}
	if r.RollbackFlashes != flashed {
		t.Errorf("rollback flashed %d machines, want every flashed machine (%d)", r.RollbackFlashes, flashed)
	}
	if !r.Rings[0].Promoted {
		t.Error("scenario requires the canary ring to have been promoted")
	}
	if r.Rings[r.HaltedRing].Promoted {
		t.Error("failing ring reported Promoted")
	}
}

// TestRollbackBookkeepingConsistency sweeps seeds and worker counts and
// checks each Report's fleet counters against the per-machine states:
// Flashed/Installed/Exposed match their per-machine counts, every
// rolled-back machine was flashed, no machine is both installed and
// rolled back, and a rollback's RollbackFlashes covers exactly the
// flashed machines. The gated sweep must see both halts and completions;
// an ungated campaign never rolls back.
func TestRollbackBookkeepingConsistency(t *testing.T) {
	img := testController(t, dataset.DefaultConfig(), -4, "cp-good")
	for _, gated := range []bool{true, false} {
		t.Run(map[bool]string{true: "gated", false: "ungated"}[gated], func(t *testing.T) {
			cfg := Config{
				Machines: 12, RingFracs: stagedFracs, Verify: true,
				CorruptProb: 0.4, FlashFailProb: 0.3, FlashRetries: 2,
			}
			wl, _ := countingWorkload()
			if gated {
				wl = testWorkload(t)
				cfg.Quorum = 0.5
				cfg.Gate = fleet.GatePolicy{MaxCRCRejectRate: 0.5, MaxTripsPerMachine: 1e9, MaxSLARate: 1, MaxMisgateRate: 1}
			}
			sawRollback, sawComplete := false, false
			for seed := int64(1); seed <= 24; seed++ {
				for _, workers := range []int{1, 4} {
					cfg.Seed, cfg.Workers = seed, workers
					s, res := runService(t, cfg, img, wl)
					name := fmt.Sprintf("seed %d workers %d", seed, workers)
					checkBookkeeping(t, name, s, res)
					if res.RolledBack {
						sawRollback = true
					} else {
						sawComplete = true
					}
				}
			}
			if gated && (!sawRollback || !sawComplete) {
				t.Fatalf("seed sweep covered rollback=%v complete=%v; need both", sawRollback, sawComplete)
			}
			if !gated && sawRollback {
				t.Fatal("an ungated campaign rolled back")
			}
		})
	}
}

// checkBookkeeping holds one finished campaign's Report to its machines.
func checkBookkeeping(t *testing.T, name string, s *Service, res *Report) {
	t.Helper()
	var flashed, installed, exposed, rolledBack int
	for m, mc := range s.machines {
		if mc.flashed {
			flashed++
		}
		if mc.installed {
			installed++
		}
		if mc.flashed && mc.corrupt {
			exposed++
		}
		if mc.rolledBack {
			rolledBack++
			if !mc.flashed || mc.installed {
				t.Errorf("%s: machine %d rolled back with flashed=%v installed=%v", name, m, mc.flashed, mc.installed)
			}
		}
	}
	if res.Flashed != flashed || res.Installed != installed || res.Exposed != exposed {
		t.Errorf("%s: aggregate (F=%d I=%d E=%d) != per-machine (F=%d I=%d E=%d)",
			name, res.Flashed, res.Installed, res.Exposed, flashed, installed, exposed)
	}
	if res.RolledBack {
		if rolledBack != flashed || res.RollbackFlashes != flashed {
			t.Errorf("%s: %d machines rolled back in %d rollback flashes, want every flashed machine (%d)",
				name, rolledBack, res.RollbackFlashes, flashed)
		}
		if res.Installed != 0 || res.Completed {
			t.Errorf("%s: rolled-back campaign has %d installed, completed=%v", name, res.Installed, res.Completed)
		}
		return
	}
	if rolledBack != 0 || res.RollbackFlashes != 0 {
		t.Errorf("%s: %d machines rolled back in %d flashes without a rollback", name, rolledBack, res.RollbackFlashes)
	}
	if res.Installed != flashed {
		t.Errorf("%s: Installed %d != Flashed %d on a promoted campaign", name, res.Installed, flashed)
	}
}

// TestCrashEventCarriesDeployError locks the crash-reason plumbing: a soak
// deployment that errors crashes its machine, and the swallowed error
// surfaces as the reason of a soak-phase ctrlplane.machine.crash event.
func TestCrashEventCarriesDeployError(t *testing.T) {
	wl := testWorkload(t)
	img := testController(t, wl.Cfg, -4, "cp-good")
	deployErr := errors.New("simulated PMU wedge on deploy")
	wl.Oracle = &crashingOracle{failOn: wl.Traces[1], err: deployErr}

	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)
	s, _ := runService(t, Config{
		Name: "crash-test", Machines: 8, RingFracs: []float64{1}, Verify: true,
		Gate: looseGate(), Seed: 3,
	}, img, wl)
	// Machines 1 and 5 soak trace 1 (machine i soaks trace i % 4).
	wantCrashed := map[int]bool{1: true, 5: true}
	for m, mc := range s.machines {
		if mc.crashed != wantCrashed[m] {
			t.Errorf("machine %d crashed = %v, want %v", m, mc.crashed, wantCrashed[m])
		}
	}
	crashes := 0
	for _, ev := range log.Events() {
		if ev.Kind != "ctrlplane.machine.crash" {
			continue
		}
		crashes++
		machine, _ := ev.Attrs["machine"].(int)
		if !wantCrashed[machine] {
			t.Errorf("crash event for healthy machine %d: %+v", machine, ev)
		}
		if ev.Attrs["phase"] != "soak" || fmt.Sprint(ev.Attrs["reason"]) != deployErr.Error() {
			t.Errorf("crash event %+v, want phase soak with the deploy error %q", ev.Attrs, deployErr)
		}
	}
	if crashes != len(wantCrashed) {
		t.Fatalf("got %d ctrlplane.machine.crash events, want %d", crashes, len(wantCrashed))
	}
}

// TestConfigValidateRejects: out-of-range and NaN probabilities, quorums
// and ring fractions are refused with an error before a campaign starts.
func TestConfigValidateRejects(t *testing.T) {
	img := testController(t, dataset.DefaultConfig(), -4, "cp-good")
	wl, _ := countingWorkload()
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"no machines", func(c *Config) { c.Machines = 0 }},
		{"negative corruption", func(c *Config) { c.CorruptProb = -0.1 }},
		{"corruption above 1", func(c *Config) { c.CorruptProb = 1.5 }},
		{"NaN corruption", func(c *Config) { c.CorruptProb = nan }},
		{"negative flash failure", func(c *Config) { c.FlashFailProb = -1 }},
		{"flash failure above 1", func(c *Config) { c.FlashFailProb = 2 }},
		{"NaN flash failure", func(c *Config) { c.FlashFailProb = nan }},
		{"negative quorum", func(c *Config) { c.Quorum = -0.5 }},
		{"quorum above 1", func(c *Config) { c.Quorum = 1.5 }},
		{"NaN quorum", func(c *Config) { c.Quorum = nan }},
		{"zero ring fraction", func(c *Config) { c.RingFracs = []float64{0, 1} }},
		{"NaN ring fraction", func(c *Config) { c.RingFracs = []float64{0.5, nan} }},
		{"ring fractions above 1", func(c *Config) { c.RingFracs = []float64{0.5, 0.6} }},
		{"more rings than machines", func(c *Config) { c.RingFracs = []float64{0.25, 0.25, 0.25, 0.25}; c.Machines = 3 }},
	} {
		cfg := Config{Machines: 12, Gate: looseGate()}
		tc.edit(&cfg)
		if s, err := New(cfg, img, wl); err == nil {
			s.Close()
			t.Errorf("%s: New accepted %+v", tc.name, cfg)
		}
	}
}
