package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/ctrlplane"
	"clustergate/internal/fault"
	"clustergate/internal/obs"
)

// ChurnArm is one cell of the churn-tolerance sweep: a full control-plane
// campaign over an unreliable fleet at one churn rate × lease policy.
type ChurnArm struct {
	Key        string
	ChurnRate  float64
	LeaseTicks int
	Report     *ctrlplane.Report
}

// CompletionRate is the fraction of the datacenter running the new image
// at campaign end — under churn a perfect campaign still misses the
// machines that left permanently, so this sits just below 1.
func (a *ChurnArm) CompletionRate() float64 {
	return float64(a.Report.Installed) / float64(a.Report.Machines)
}

// CtrlplaneChurnResult is the exp/ctrlplane-churn report: the churn-rate ×
// lease-policy sweep of good-image campaigns, plus the bad-image
// counterfactual under a third of the fleet flapping (which the canary's
// health gate must still catch).
type CtrlplaneChurnResult struct {
	Model    string
	Machines int
	// Traces is the SPEC subset size the soak profiles deploy on.
	Traces int

	Arms []ChurnArm
	// Bad is the miscalibrated-image campaign at 33% churn over a clean
	// transport.
	Bad *ctrlplane.Report

	// Wall-clock figures over the whole sweep. They never reach stdout —
	// only BENCH_ctrlplane_churn.json — so the experiment stream stays
	// byte-identical across machines. P95DecisionMS reads the
	// ctrlplane.churn.decision.latency histogram, scoped to this
	// experiment so the soak study's p95 is undisturbed.
	WallSeconds   float64
	P95DecisionMS float64
}

// churnFaultPlan is the sweep's unreliable-fleet model at one churn rate:
// machines leave, reboot, or join late; telemetry arrives a tick or two
// behind; ingest shards stall for short windows. The stall burst (4) is
// deliberately longer than the sweep's short lease (2) and no longer than
// its long lease (4), so the lease axis separates: lease-2 arms quarantine
// stalled shards and renew them when telemetry resumes, lease-4 arms ride
// the stall out.
func churnFaultPlan(seed int64, rate float64) fault.Plan {
	return fault.Plan{
		Seed: seed,
		Rules: []fault.Rule{
			{Class: fault.MachineChurn, Rate: rate, Burst: 3, Span: 12},
			{Class: fault.TelemetryDelay, Rate: 0.05, Burst: 2},
			{Class: fault.ShardStall, Rate: 0.06, Burst: 4, Shards: 8},
		},
	}
}

// churnCampaignConfig hardens the soak campaign config for an unreliable
// fleet: a quorum that tolerates flapping, the arm's lease policy, and
// the arm's fault plan.
func churnCampaignConfig(e *Env, n int, rate float64, lease int) ctrlplane.Config {
	cfg := ctrlplaneConfig(e, n)
	cfg.Quorum = 0.7
	cfg.CorruptProb = 0.1
	cfg.LeaseTicks = lease
	cfg.Faults = churnFaultPlan(e.Seed+17, rate)
	cfg.LatencyScope = "ctrlplane.churn.decision.latency"
	return cfg
}

// CtrlplaneChurn runs the churn-tolerance study: the sealed controller
// image rolls out across an unreliable simulated datacenter (a fifth of
// the soak study's size) under a sweep of churn rates × lease policies,
// exercising the control plane's liveness machinery — membership
// tracking, catch-up flashes, lease quarantine, degraded-mode gate
// deferral. The sweep then re-runs with a miscalibrated image while a
// third of the fleet flaps, which must still halt at the canary. When
// ckptDir is set every campaign checkpoints its control state there, so
// a killed run resumes mid-campaign. Reports are deterministic;
// throughput lands only in the wall-clock fields.
func CtrlplaneChurn(e *Env, g *core.GatingController, ckptDir string) (*CtrlplaneChurnResult, error) {
	defer obs.Start("ctrlplane.churn.study").End()
	n := e.Scale.CtrlMachines
	if n == 0 {
		n = 10_000
	}
	if n /= 5; n < 500 {
		n = 500
	}
	wl, img, badImg, err := soakWorkload(e, g)
	if err != nil {
		return nil, err
	}

	res := &CtrlplaneChurnResult{Model: g.Name, Machines: n, Traces: len(wl.Traces)}
	start := time.Now()
	for _, rate := range []float64{0.05, 0.10} {
		for _, lease := range []int{2, 4} {
			key := fmt.Sprintf("churn%02.0f-lease%d", 100*rate, lease)
			cfg := churnCampaignConfig(e, n, rate, lease)
			cfg.Name = "ctrlplane-churn-" + key
			if ckptDir != "" {
				cfg.CheckpointPath = filepath.Join(ckptDir, cfg.Name+".ckpt")
			}
			s, err := ctrlplane.New(cfg, img, wl)
			if err != nil {
				return nil, err
			}
			rep, err := s.Run()
			if err != nil {
				return nil, fmt.Errorf("experiments: churn arm %s: %w", key, err)
			}
			res.Arms = append(res.Arms, ChurnArm{
				Key: key, ChurnRate: rate, LeaseTicks: lease, Report: rep,
			})
		}
	}

	bcfg := churnCampaignConfig(e, n, 0.33, 2)
	bcfg.Name = "ctrlplane-churn-bad"
	bcfg.CorruptProb = 0 // clean transport isolates the semantic failure
	if ckptDir != "" {
		bcfg.CheckpointPath = filepath.Join(ckptDir, bcfg.Name+".ckpt")
	}
	bs, err := ctrlplane.New(bcfg, badImg, wl)
	if err != nil {
		return nil, err
	}
	badRep, err := bs.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: churn bad campaign: %w", err)
	}
	res.Bad = badRep

	res.WallSeconds = time.Since(start).Seconds()
	res.P95DecisionMS = obs.NewHistogram("ctrlplane.churn.decision.latency").Snapshot().P95MS
	return res, nil
}

// PrintCtrlplaneChurn renders the sweep's deterministic report: logical
// counts only, never wall-clock.
func PrintCtrlplaneChurn(w io.Writer, r *CtrlplaneChurnResult) {
	fmt.Fprintf(w, "Control-plane churn tolerance (%s): %d machines, soaking %d traces\n",
		r.Model, r.Machines, r.Traces)
	fmt.Fprintf(w, "  %-16s %5s %11s %6s %6s %8s %6s %8s %7s  %s\n",
		"arm", "lease", "installed", "leaves", "joins", "catchup", "stale", "renewed", "defers", "state")
	for i := range r.Arms {
		a := &r.Arms[i]
		rep := a.Report
		state := "completed"
		if !rep.Completed {
			state = fmt.Sprintf("HALTED at ring %d", rep.HaltedRing)
		}
		fmt.Fprintf(w, "  %-16s %5d %11s %6d %6d %8d %6d %8d %7d  %s\n",
			a.Key, a.LeaseTicks,
			fmt.Sprintf("%d/%d", rep.Installed, rep.Machines),
			rep.Leaves, rep.Joins, rep.CatchUpFlashes,
			rep.StaleQuarantines, rep.LeaseRenewals, rep.GateDeferrals, state)
	}
	fmt.Fprintf(w, "bad image with a third of the fleet flapping (clean transport):\n")
	ctrlplane.Print(w, r.Bad)
}
