package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/ctrlplane"
	"clustergate/internal/fault"
	"clustergate/internal/fleet"
	"clustergate/internal/parallel"
	"clustergate/internal/surrogate"
)

// bench is one workload after set-up.
type bench interface {
	// round runs one round of operations, reporting each through rec.
	round(r int, rec *recorder) error
	// verify re-checks, untimed, the results the measured rounds produced,
	// logging what it measured to w.
	verify(w io.Writer) error
}

// workload is one benchmark workload: the set-up that turns the shared
// inputs into its bench, and whether its measured rounds run serially.
type workload struct {
	setup func(in *inputs, clk setupClock) (bench, error)
	// serial runs the measured rounds on one scheduler thread (GOMAXPROCS
	// 1), so every pool resolves to one worker and the cycle model keeps
	// its serial schedule. Otherwise rounds run on every core: deployments
	// fan out over the cores and the cycle model overlaps its probe and
	// timing passes. Set-ups always run on every core.
	serial bool
}

// workloads maps each workload's name to its definition. BENCHMARK.json
// records why each one exists.
var workloads = map[string]workload{
	"study": {setup: func(in *inputs, _ setupClock) (bench, error) {
		return &deployBench{in: in, oracle: core.ExactOracle{}}, nil
	}},
	"replay": {serial: true, setup: func(in *inputs, clk setupClock) (bench, error) {
		o, err := trainSurrogate(in, clk)
		if err != nil {
			return nil, err
		}
		return &deployBench{in: in, oracle: o, replay: true}, nil
	}},
	"fleet": {serial: true, setup: func(in *inputs, clk setupClock) (bench, error) {
		o, err := trainSurrogate(in, clk)
		if err != nil {
			return nil, err
		}
		var img bytes.Buffer
		if err := core.SaveController(&img, in.ctl); err != nil {
			return nil, fmt.Errorf("sealing controller image: %w", err)
		}
		return &fleetBench{in: in, oracle: o, img: img.Bytes()}, nil
	}},
}

// trainSurrogate fits the surrogate on the training corpus, as paperbench
// does for -sim surrogate, and wraps it in the surrogate-mode oracle.
func trainSurrogate(in *inputs, clk setupClock) (*surrogate.Oracle, error) {
	var m *surrogate.Model
	err := clk.time("train", func() (err error) {
		m, err = surrogate.Train(in.train, in.trainTel, in.cfg, surrogate.TrainOptions{Seed: trainSeed})
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("training surrogate: %w", err)
	}
	return surrogate.NewOracle(m, core.SimSurrogate, surrogate.OracleOptions{}), nil
}

// recorder counts a run's operations and their failures.
type recorder struct {
	l                 *ledger // nil unless the run is traced
	attempted, failed int
	firstErr          error
}

// check records one operation's outcome.
func (r *recorder) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// deployBench deploys the controller on every test trace once per round,
// under the round's fault plan and the default guardrail, fanned out over
// the worker pool as paperbench's fault studies deploy a suite. An
// operation is one deployment.
type deployBench struct {
	in     *inputs
	oracle core.SimOracle
	replay bool
	// first holds round 0's results for verify.
	first []*core.GuardedDeploymentResult
}

func (b *deployBench) round(r int, rec *recorder) error {
	inj, err := fault.NewInjector(b.in.faultPlan(r))
	if err != nil {
		return err
	}
	oracle := b.oracle
	if rec.l != nil {
		oracle = tracedOracle{oracle, rec.l}
	}
	n := len(b.in.test.Traces)
	results := make([]*core.GuardedDeploymentResult, n)
	errs := make([]error, n)
	_ = parallel.ForEach(0, n, func(i int) error {
		gr := b.in.gr
		res, err := oracle.Deploy(b.in.ctl, b.in.test.Traces[i], b.in.testTel[i], b.in.cfg, b.in.pm,
			core.DeployOptions{Guardrail: &gr, Injector: inj})
		if err == nil {
			err = b.in.checkDeployment(i, res)
		}
		results[i], errs[i] = res, err
		return nil
	})
	for i, err := range errs {
		rec.check(err)
		if r == 0 {
			b.first = append(b.first, results[i])
		}
	}
	return nil
}

// checkDeployment checks one deployment's record against what its inputs
// fix: one decision per window after the two-window pipeline fill, a
// residency that is a fraction, and positive finite IPC.
func (in *inputs) checkDeployment(i int, res *core.GuardedDeploymentResult) error {
	want := in.windows(i) - 2
	if len(res.Pred) != want || len(res.Truth) != want || len(res.Eff) != want {
		return fmt.Errorf("trace %d: %d/%d/%d decisions, want %d", i, len(res.Pred), len(res.Truth), len(res.Eff), want)
	}
	if res.LowResidency < 0 || res.LowResidency > 1 {
		return fmt.Errorf("trace %d: low-power residency %v", i, res.LowResidency)
	}
	for _, ipc := range []float64{res.Adaptive.IPC(), res.Reference.IPC()} {
		if !(ipc > 0) || math.IsInf(ipc, 0) {
			return fmt.Errorf("trace %d: IPC %v", i, ipc)
		}
	}
	return nil
}

// Bounds on the surrogate against the exact simulator over round 0. Over
// seeds 1 to 40 the median relative adaptive-IPC error ran from 0.2% to
// 11.8% (2% at the median seed) and the prediction agreement from 87.5%
// (4 of 32 windows differ) to 100%; the bounds leave about twice the
// worst seed's error. The surrogate is trained on a small corpus here, so
// these are sanity bounds, not the 5% p95 budget paperbench validates at
// full scale.
const (
	maxReplayError = 0.20
	minReplayAgree = 0.75
)

// verify redeploys round 0 untraced and requires identical results, which
// also shows tracing does not perturb them. For the surrogate it also runs
// round 0 on the exact simulator and bounds the surrogate's median
// adaptive-IPC error and its agreement with the exact model predictions,
// window by window.
func (b *deployBench) verify(w io.Writer) error {
	inj, err := fault.NewInjector(b.in.faultPlan(0))
	if err != nil {
		return err
	}
	var errs []float64
	var agree, windows int
	for i, tr := range b.in.test.Traces {
		gr := b.in.gr
		opts := core.DeployOptions{Guardrail: &gr, Injector: inj}
		again, err := b.oracle.Deploy(b.in.ctl, tr, b.in.testTel[i], b.in.cfg, b.in.pm, opts)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(again, b.first[i]) {
			return fmt.Errorf("trace %d: redeployment differs from round 0", i)
		}
		if !b.replay {
			continue
		}
		exact, err := core.ExactOracle{}.Deploy(b.in.ctl, tr, b.in.testTel[i], b.in.cfg, b.in.pm, opts)
		if err != nil {
			return err
		}
		errs = append(errs, math.Abs(again.Adaptive.IPC()/exact.Adaptive.IPC()-1))
		for t := range exact.Pred {
			windows++
			if again.Pred[t] == exact.Pred[t] {
				agree++
			}
		}
	}
	if !b.replay {
		return nil
	}
	e, a := quantile(errs, 0.5), float64(agree)/float64(windows)
	fmt.Fprintf(w, "perfbench: surrogate vs exact: median IPC error %.4f, prediction agreement %.4f\n", e, a)
	if e > maxReplayError || a < minReplayAgree {
		return fmt.Errorf("surrogate median IPC error %.4f (max %.2f), prediction agreement %.4f (min %.2f)",
			e, maxReplayError, a, minReplayAgree)
	}
	return nil
}

// Fleet campaign shape. The campaign is the control-plane soak study's
// (paperbench -exp ctrlplane-soak): default 1/9/30/60% rings flashed in
// waves of 1/8 of the fleet, every install CRC checked and decoded. The
// fleet is 240 machines, not the study's 10,000, because every flash
// decodes the image — most of a campaign's time — so a campaign takes
// about 120 ms on one thread and a run holds hundreds of them. The ingest
// settings shrink with the fleet so a shard's load matches the study's: at
// 10,000 machines over the default 8 shards a shard serves 1,250 machines,
// about 10 full 256-interval batches a tick into a 4-deep queue, so
// producers block; 240 machines over 2 shards in 24-interval batches give
// each shard 120 machines and the same 10 batches a tick into the same
// queue. Soaks
// replay on the surrogate, as under paperbench -sim surrogate, so the
// campaign's time goes to the control plane rather than the cycle model
// the study workload measures. The transport never fails or corrupts: each
// retry backs off with a sleep, which would measure the host's timer (50µs
// sleeps take a millisecond on some hosts) rather than the program.
const (
	fleetMachines = 240
	fleetShards   = 2
	fleetBatch    = 24
)

// fleetGate still halts on crashes but lets guardrail trips, misgates and
// SLA violations through: the benchmark's small-corpus controller trips
// and misgates heavily on some suites, and the workload measures the
// rollout machinery, so every campaign must reach the whole fleet.
var fleetGate = fleet.GatePolicy{MaxCRCRejectRate: 1, MaxTripsPerMachine: 100, MaxSLARate: 1, MaxMisgateRate: 1}

// fleetBench runs one control-plane campaign per round; an operation is one
// campaign.
type fleetBench struct {
	in     *inputs
	oracle core.SimOracle
	img    []byte
	first  *ctrlplane.Report
}

func (b *fleetBench) round(_ int, rec *recorder) error {
	wl := fleet.Workload{Traces: b.in.test.Traces, Tel: b.in.testTel, Cfg: b.in.cfg, PM: b.in.pm, Oracle: b.oracle}
	if rec.l != nil {
		wl.Oracle = tracedOracle{b.oracle, rec.l}
	}
	t0 := time.Now()
	s, err := ctrlplane.New(ctrlplane.Config{
		Name: "perfbench-fleet", Machines: fleetMachines, Seed: b.in.seed,
		FlashPerTick: fleetMachines / 8, Shards: fleetShards, BatchSize: fleetBatch, LatencyScope: ingestScope,
		Gate: fleetGate, Guardrail: b.in.gr, Verify: true,
	}, b.img, wl)
	if err != nil {
		return err
	}
	rep, err := s.Run()
	if err == nil {
		err = b.check(rep)
	}
	rec.check(err)
	if err == nil && rec.l != nil {
		rec.l.campaign.add(int64(rep.Ticks), t0)
	}
	return nil
}

// check requires the image to reach the whole fleet (up to the quorum's
// stragglers) and every campaign to repeat the first exactly.
func (b *fleetBench) check(rep *ctrlplane.Report) error {
	if !rep.Completed || rep.RolledBack || float64(rep.Installed) < 0.95*fleetMachines || rep.Intervals == 0 {
		return fmt.Errorf("campaign: completed=%v (%s) rolled back=%v installed %d of %d, %d intervals",
			rep.Completed, rep.HaltReason, rep.RolledBack, rep.Installed, fleetMachines, rep.Intervals)
	}
	if b.first == nil {
		b.first = rep
	} else if !reflect.DeepEqual(rep, b.first) {
		return fmt.Errorf("campaign report differs from the first campaign's")
	}
	return nil
}

func (b *fleetBench) verify(io.Writer) error {
	if b.first == nil {
		return fmt.Errorf("no campaign completed")
	}
	return nil
}
