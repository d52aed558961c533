package experiments

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/ctrlplane"
	"clustergate/internal/obs"
)

// CtrlplaneResult is the exp/ctrlplane-soak report: one datacenter-scale
// control-plane campaign shipping the trained controller under transport
// pressure, paired with the bad-image counterfactual (the same control
// plane shipping a miscalibrated controller over a clean transport, which
// the canary's health gate must catch).
type CtrlplaneResult struct {
	Model    string
	Machines int
	Shards   int
	// Traces is the SPEC subset size the soak profiles deploy on.
	Traces int

	// Good is the healthy-image campaign; Bad the miscalibrated one.
	Good *ctrlplane.Report
	Bad  *ctrlplane.Report

	// Wall-clock throughput over both campaigns combined. These fields
	// never reach stdout — only BENCH_ctrlplane.json — so the experiment
	// stream stays byte-identical across machines.
	WallSeconds     float64
	MachinesPerSec  float64
	DecisionsPerSec float64
	// P95DecisionMS is the p95 ingest-fold latency from the
	// ctrlplane.decision.latency histogram, cumulative over the process
	// (in paperbench only this experiment observes it — the churn study
	// scopes its campaigns to a separate histogram).
	P95DecisionMS float64
}

// ctrlplaneConfig sizes one campaign for an n-machine datacenter: default
// staged rings (1/9/30/60%), CRC verification under moderate transport
// pressure, and flash waves sized so the broad rings take several ticks —
// the pipelined-ring schedule the study exists to exercise.
func ctrlplaneConfig(e *Env, n int) ctrlplane.Config {
	return ctrlplane.Config{
		Name:          "ctrlplane-soak",
		Machines:      n,
		Workers:       e.Scale.Workers,
		Seed:          e.Seed,
		FlashPerTick:  n / 8,
		Gate:          looseGate(),
		Guardrail:     core.DefaultGuardrail(),
		Verify:        true,
		CorruptProb:   0.2,
		FlashFailProb: 0.25,
		FlashRetries:  3,
	}
}

// CtrlplaneSoak runs the control-plane soak study: the sealed controller
// image rolls out across a Scale.CtrlMachines-machine simulated datacenter
// through internal/ctrlplane — pipelined rings, quorum promotion with
// straggler re-flash, continuous telemetry ingest — and then the same
// campaign re-runs with a miscalibrated image over a clean transport,
// which must halt at the canary and roll back. When ckptDir is set both
// campaigns checkpoint their control state there, so a killed run resumes
// mid-campaign. Reports are deterministic; throughput lands only in the
// wall-clock fields.
func CtrlplaneSoak(e *Env, g *core.GatingController, ckptDir string) (*CtrlplaneResult, error) {
	defer obs.Start("ctrlplane.soak.study").End()
	n := e.Scale.CtrlMachines
	if n == 0 {
		n = 10_000
	}
	wl, img, badImg, err := soakWorkload(e, g)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	goodCfg := ctrlplaneConfig(e, n)
	if ckptDir != "" {
		goodCfg.CheckpointPath = filepath.Join(ckptDir, "ctrlplane-soak-good.ckpt")
	}
	gs, err := ctrlplane.New(goodCfg, img, wl)
	if err != nil {
		return nil, err
	}
	goodRep, err := gs.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: ctrlplane good campaign: %w", err)
	}

	badCfg := ctrlplaneConfig(e, n)
	badCfg.Name = "ctrlplane-soak-bad"
	badCfg.CorruptProb = 0 // clean transport isolates the semantic failure
	if ckptDir != "" {
		badCfg.CheckpointPath = filepath.Join(ckptDir, "ctrlplane-soak-bad.ckpt")
	}
	bs, err := ctrlplane.New(badCfg, badImg, wl)
	if err != nil {
		return nil, err
	}
	badRep, err := bs.Run()
	if err != nil {
		return nil, fmt.Errorf("experiments: ctrlplane bad campaign: %w", err)
	}
	wall := time.Since(start).Seconds()

	res := &CtrlplaneResult{
		Model:    g.Name,
		Machines: n,
		Shards:   goodRep.Shards,
		Traces:   len(wl.Traces),
		Good:     goodRep,
		Bad:      badRep,

		WallSeconds:   wall,
		P95DecisionMS: obs.NewHistogram("ctrlplane.decision.latency").Snapshot().P95MS,
	}
	if wall > 0 {
		res.MachinesPerSec = float64(goodRep.Flashed+badRep.Flashed) / wall
		res.DecisionsPerSec = float64(goodRep.Decisions+badRep.Decisions) / wall
	}
	return res, nil
}

// PrintCtrlplane renders both campaigns' deterministic reports: logical
// ticks and counts only, never wall-clock.
func PrintCtrlplane(w io.Writer, r *CtrlplaneResult) {
	fmt.Fprintf(w, "Control-plane soak (%s): %d machines, soaking %d traces\n",
		r.Model, r.Machines, r.Traces)
	fmt.Fprintf(w, "good image:\n")
	ctrlplane.Print(w, r.Good)
	fmt.Fprintf(w, "bad image (miscalibrated thresholds, clean transport):\n")
	ctrlplane.Print(w, r.Bad)
}
