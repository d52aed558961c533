package experiments

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"clustergate/internal/core"
	"clustergate/internal/ctrlplane"
	"clustergate/internal/fleet"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
)

// FleetRolloutRow is one rollout policy's measured frontier point: the
// good image's outcome under transport pressure, paired with what the same
// policy does to a semantically bad (miscalibrated) image.
type FleetRolloutRow struct {
	Key, Label string
	// Rings is the staged layout (a single ring is a big bang); Verify and
	// Gated describe the policy; CorruptProb the transport pressure.
	Rings       []int
	Verify      bool
	Gated       bool
	CorruptProb float64

	// Good-image outcome. TimeSteps is the campaign's length in ticks;
	// Completed reports every machine ended on the new image.
	Installed, Exposed, Rejected int
	CRCRejects, FlashRetries     int
	TimeSteps                    int
	Completed                    bool
	GateFailure                  string

	// Bad-image outcome: the same policy shipping a miscalibrated
	// controller over a clean transport. BadFlashed machines ran the bad
	// image at some point; BadCaught reports the gate halted the rollout,
	// at ring BadCaughtRing (-1 when never caught), rolling back
	// BadRollbackFlashes machines with BadRollbackRetries retried flashes.
	BadFlashed         int
	BadCaught          bool
	BadCaughtRing      int
	BadRollbackFlashes int
	BadRollbackRetries int
	BadTimeSteps       int
}

// FleetRolloutResult is the exp/fleet-rollout report: the machines-exposed
// versus time-to-full-fleet frontier over rollout policies, with the
// bad-image blast radius of each.
type FleetRolloutResult struct {
	Model    string
	Machines int
	// Traces is the SPEC subset size the soak phases deploy on.
	Traces int
	Rows   []FleetRolloutRow
}

// rolloutArm is one policy × corruption-rate grid point: the ring sizes
// it intends and the control-plane campaign that runs it.
type rolloutArm struct {
	Key, Label string
	Rings      []int
	cfg        ctrlplane.Config
}

// looseGate tolerates transport noise (CRC rejections are retried, not
// gate-worthy) and promotes on soak health alone — the production setting.
// The misgate rate is the sharp signal: healthy controllers misgate well
// under a quarter of truth-high-performance predictions even while
// tripping the guardrail occasionally, a miscalibrated one misgates most
// of them (measured across controller families and trace scales, the gap
// is roughly 0.2 versus 0.45+). Trips per machine and the SLA-window rate
// back it up as the catastrophic-collapse alarms.
func looseGate() fleet.GatePolicy {
	return fleet.GatePolicy{MaxCRCRejectRate: 1, MaxTripsPerMachine: 3, MaxSLARate: 0.5, MaxMisgateRate: 0.35}
}

// strictGate also treats transport corruption itself as a stop signal.
func strictGate() fleet.GatePolicy {
	return fleet.GatePolicy{MaxCRCRejectRate: 0.34, MaxTripsPerMachine: 1.5, MaxSLARate: 0.25, MaxMisgateRate: 0.3}
}

// rolloutArms builds the policy grid for an n-machine fleet. n must be
// divisible by 12 so every ring is a whole number of machines. Every arm
// flashes n/6 machines a tick: a big bang takes 6 ticks, and a staged
// arm, whose next ring flashes while the previous one soaks, at most
// SoakTicks+1 more. Big-bang arms run ungated (the zero gate). Gated arms
// start a ring's soak once half of it has installed, re-flash its
// stragglers, and judge it after one tick of 8 intervals per machine: the
// control plane's defaults (quorum 0.95, 3 soak ticks of 2 intervals)
// halt healthy rollouts on rings this small.
func rolloutArms(n int) []rolloutArm {
	staged := []int{n / 12, n / 4, n - n/12 - n/4}
	wide := []int{n / 6, n / 3, n - n/6 - n/3}
	mk := func(key, label string, corrupt float64, rings []int, verify bool, gate fleet.GatePolicy) rolloutArm {
		cfg := ctrlplane.Config{
			Machines: n, FlashPerTick: n / 6, Gate: gate, Verify: verify,
			CorruptProb: corrupt, FlashFailProb: 0.25, FlashRetries: 3,
			Guardrail:    core.DefaultGuardrail(),
			LatencyScope: "ctrlplane.rollout.decision.latency",
		}
		for _, r := range rings {
			cfg.RingFracs = append(cfg.RingFracs, float64(r)/float64(n))
		}
		if gate != (fleet.GatePolicy{}) {
			cfg.SoakTicks, cfg.IntervalsPerTick, cfg.Quorum = 1, 8, 0.5
		}
		return rolloutArm{Key: key, Label: label, Rings: rings, cfg: cfg}
	}
	bigbang := func(corrupt float64) rolloutArm {
		return mk(fmt.Sprintf("bigbang-%02.0f", 100*corrupt), "big-bang unverified", corrupt,
			[]int{n}, false, fleet.GatePolicy{})
	}
	stagedArm := func(key, label string, corrupt float64, rings []int, gate fleet.GatePolicy) rolloutArm {
		return mk(fmt.Sprintf("%s-%02.0f", key, 100*corrupt), label, corrupt, rings, true, gate)
	}
	return []rolloutArm{
		bigbang(0),
		bigbang(0.2),
		bigbang(0.45),
		mk("bigbang-crc-20", "big-bang CRC-verified", 0.2, []int{n}, true, fleet.GatePolicy{}),
		stagedArm("staged", "staged+gated", 0, staged, looseGate()),
		stagedArm("staged", "staged+gated", 0.2, staged, looseGate()),
		stagedArm("staged", "staged+gated", 0.45, staged, looseGate()),
		stagedArm("staged-wide", "staged+gated wide canary", 0.2, wide, looseGate()),
		stagedArm("staged-strict", "staged+gated strict", 0.2, staged, strictGate()),
	}
}

// soakWorkload is what every rollout study ships and soaks on: the
// workload over sweepSubset's traces, the controller's sealed image, and
// the sealed image of a bad build of it — the same model with its gating
// thresholds miscalibrated so far down that every window gates, the kind
// of semantic regression a CRC envelope can never catch, only a health
// gate can.
func soakWorkload(e *Env, g *core.GatingController) (wl fleet.Workload, img, badImg []byte, err error) {
	traces, tel := sweepSubset(e)
	wl = fleet.Workload{Traces: traces, Tel: tel, Cfg: e.Cfg, PM: e.PM, Oracle: e.SimOracle()}
	bad := *g
	bad.Name = g.Name + "-miscalibrated"
	bad.ThresholdHigh, bad.ThresholdLow = -1e9, -1e9
	var good, miscal bytes.Buffer
	if err := core.SaveController(&good, g); err != nil {
		return wl, nil, nil, err
	}
	if err := core.SaveController(&miscal, &bad); err != nil {
		return wl, nil, nil, err
	}
	return wl, good.Bytes(), miscal.Bytes(), nil
}

// FleetRollout maps the fleet-rollout policy frontier: every arm flashes
// the trained controller's sealed image across the simulated fleet under
// its transport-corruption pressure, then re-runs the same policy on a
// semantically bad image — the controller with its calibrated gating
// thresholds destroyed, a firmware hotfix gone wrong — over a clean
// transport, measuring how many machines each policy lets the bad image
// reach before the health gate stops it. Each rollout is a control-plane
// campaign. Arms fan out through the worker pool and fold in grid order;
// the whole study inherits the control plane's determinism contract.
func FleetRollout(e *Env, g *core.GatingController) (*FleetRolloutResult, error) {
	defer obs.Start("fleet.rollout.study").End()
	n := e.Scale.FleetMachines
	if n == 0 {
		n = 24
	}
	if n%12 != 0 {
		return nil, fmt.Errorf("experiments: fleet size %d not divisible by 12", n)
	}
	wl, img, badImg, err := soakWorkload(e, g)
	if err != nil {
		return nil, err
	}

	arms := rolloutArms(n)
	rows, err := parallel.Map(e.Scale.Workers, len(arms),
		func(k int) (FleetRolloutRow, error) {
			a := arms[k]
			good := a.cfg
			good.Name = "fleet/" + a.Key + "/good"
			good.Seed = e.Seed + int64(k)
			good.Workers = e.Scale.Workers
			gr, err := runArm(good, a.Rings, img, wl)
			if err != nil {
				return FleetRolloutRow{}, fmt.Errorf("experiments: rollout arm %s: %w", a.Key, err)
			}
			// The bad-image counterfactual runs over a clean transport so
			// the blast radius isolates the semantic failure.
			badCfg := good
			badCfg.Name = "fleet/" + a.Key + "/bad"
			badCfg.CorruptProb = 0
			br, err := runArm(badCfg, a.Rings, badImg, wl)
			if err != nil {
				return FleetRolloutRow{}, fmt.Errorf("experiments: rollout arm %s (bad image): %w", a.Key, err)
			}
			return FleetRolloutRow{
				Key: a.Key, Label: a.Label,
				Rings: a.Rings, Verify: a.cfg.Verify, Gated: a.cfg.Gate != (fleet.GatePolicy{}),
				CorruptProb: a.cfg.CorruptProb,
				Installed:   gr.Installed, Exposed: gr.Exposed, Rejected: gr.Rejected,
				CRCRejects: gr.CRCRejects, FlashRetries: gr.FlashRetries,
				TimeSteps: gr.Ticks, Completed: gr.Installed == n, GateFailure: gr.HaltReason,
				BadFlashed: br.Flashed, BadCaught: br.RolledBack, BadCaughtRing: br.HaltedRing,
				BadRollbackFlashes: br.RollbackFlashes, BadRollbackRetries: br.RollbackRetries,
				BadTimeSteps: br.Ticks,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	return &FleetRolloutResult{
		Model:    g.Name,
		Machines: n,
		Traces:   len(wl.Traces),
		Rows:     rows,
	}, nil
}

// runArm runs one rollout campaign and checks it laid out the intended
// rings: the control plane sizes rings from fleet fractions, which must
// round back to whole machines.
func runArm(cfg ctrlplane.Config, rings []int, img []byte, wl fleet.Workload) (*ctrlplane.Report, error) {
	s, err := ctrlplane.New(cfg, img, wl)
	if err != nil {
		return nil, err
	}
	rep, err := s.Run()
	if err != nil {
		return nil, err
	}
	sizes := make([]int, len(rep.Rings))
	for i, st := range rep.Rings {
		sizes[i] = st.Size
	}
	if !slices.Equal(sizes, rings) {
		return nil, fmt.Errorf("campaign laid out rings of %v machines, want %v", sizes, rings)
	}
	return rep, nil
}

// ringsLabel renders a ring layout compactly.
func ringsLabel(rings []int) string {
	var b bytes.Buffer
	for i, r := range rings {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%d", r)
	}
	return b.String()
}

// PrintFleetRollout renders the frontier.
func PrintFleetRollout(w io.Writer, r *FleetRolloutResult) {
	fmt.Fprintf(w, "Fleet rollout frontier (%s): %d machines, soaking %d traces\n",
		r.Model, r.Machines, r.Traces)
	fmt.Fprintf(w, "  %-28s %-8s %7s %9s %7s %8s %5s %5s  %s\n",
		"policy", "rings", "corrupt", "installed", "exposed", "rejects", "time", "done", "bad image")
	for _, row := range r.Rows {
		done := "yes"
		switch {
		case row.GateFailure != "":
			done = "HALT"
		case !row.Completed:
			// Some machines exhausted their flash retries and kept the old
			// image; the rollout itself ran to the last ring.
			done = "part"
		}
		badStory := fmt.Sprintf("shipped to %d/%d", row.BadFlashed, r.Machines)
		if row.BadCaught {
			badStory = fmt.Sprintf("caught@ring%d after %d machines, %d rolled back",
				row.BadCaughtRing, row.BadFlashed, row.BadRollbackFlashes)
		}
		fmt.Fprintf(w, "  %-28s %-8s %6.0f%% %9d %7d %8d %5d %5s  %s\n",
			row.Label, ringsLabel(row.Rings), 100*row.CorruptProb,
			row.Installed, row.Exposed, row.CRCRejects, row.TimeSteps, done, badStory)
		if row.GateFailure != "" {
			fmt.Fprintf(w, "  %-28s   halted: %s\n", "", row.GateFailure)
		}
	}
}
