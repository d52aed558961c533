// Datacenter: the paper's post-silicon deployment scenario (Section 7.3),
// taken to fleet scale. A trained gating controller ships as a sealed
// firmware image that datacenter infrastructure management software
// flashes across the fleet — and because a firmware push is just software,
// a bad push is one miscalibration away. This example rolls a healthy
// image out through staged rings of the control plane under a noisy
// transport, then shows the two failure stories the rollout machinery
// exists for: a canary health gate catching a miscalibrated hotfix before
// it leaves the first two rings, and the ungated big-bang counterfactual
// that ships it everywhere.
//
// Run with:
//
//	go run ./examples/datacenter
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"clustergate/internal/core"
	"clustergate/internal/ctrlplane"
	"clustergate/internal/dataset"
	"clustergate/internal/fleet"
	"clustergate/internal/mcu"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
)

func main() {
	fmt.Println("== staged firmware rollout across a 24-machine fleet ==")
	train := trace.BuildHDTR(trace.HDTRConfig{
		Apps: 96, MeanTracesPerApp: 2, InstrsPerTrace: 350_000, Seed: 3,
	})
	test := trace.BuildSPEC(trace.SPECConfig{
		TracesPerWorkload: 1, InstrsPerTrace: 450_000, Seed: 4,
	})
	cfg := dataset.DefaultConfig()
	trainTel := dataset.SimulateCorpus(train, cfg)
	testTel := dataset.SimulateCorpus(test, cfg)

	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		log.Fatal(err)
	}

	// The firmware update: train the controller and seal it in its CRC
	// integrity envelope, the artifact the DCIM software pushes.
	trained, err := core.RetrainSLA(core.BuildInputs{
		Tel:      trainTel,
		Counters: cs,
		Columns:  cols,
		Interval: cfg.Interval,
		Spec:     mcu.DefaultSpec(),
		Seed:     7,
	}, 0.90)
	if err != nil {
		log.Fatal(err)
	}
	var image bytes.Buffer
	if err := core.SaveController(&image, trained); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "  sealed %s: %d-byte firmware image\n", trained.Name, image.Len())

	wl := fleet.Workload{Traces: test.Traces, Tel: testTel, Cfg: cfg, PM: power.DefaultModel()}
	// Four machines flash per tick. Each ring soaks once half of it has
	// installed (stragglers get a re-flash) and is judged after one tick
	// of two telemetry intervals per machine — about one pass over these
	// two-window traces — while the next ring flashes. A soak that short
	// reads the misgate rate from a few sampled windows (this healthy
	// image's broad ring reads 0.43), so the trips bound is the one that
	// separates a bad image here.
	staged := ctrlplane.Config{
		Name: "datacenter/staged", Machines: 24,
		RingFracs: []float64{2.0 / 24, 6.0 / 24, 16.0 / 24}, Verify: true,
		Gate:         fleet.GatePolicy{MaxCRCRejectRate: 1, MaxTripsPerMachine: 3, MaxSLARate: 0.5, MaxMisgateRate: 0.5},
		Guardrail:    core.DefaultGuardrail(),
		FlashPerTick: 4, SoakTicks: 1, IntervalsPerTick: 2, Quorum: 0.5,
		CorruptProb: 0.2, FlashFailProb: 0.25, FlashRetries: 4,
		Seed: 11,
	}

	// Act 1: the healthy image, over a transport that corrupts one in five
	// transfers. CRC rejections are retried, each ring soaks clean, every
	// ring promotes.
	good := campaign(staged, image.Bytes(), wl)
	fmt.Printf("\nhealthy image, staged canary(2) -> early(6) -> broad(16):\n")
	for _, ring := range good.Rings {
		fmt.Printf("  ring %d: %2d/%2d installed, %d CRC rejections retried, %d trips  -> promoted=%v\n",
			ring.Index, ring.Installed, ring.Size, ring.CRCRejects, ring.Trips, ring.Promoted)
	}
	if !good.Completed {
		fmt.Printf("  HALTED at ring %d: %s\n", good.HaltedRing, good.HaltReason)
	}
	fmt.Printf("  fleet on new image: %d/%d machines in %d ticks (corrupted payloads installed: %d)\n",
		good.Installed, good.Machines, good.Ticks, good.Exposed)

	// Act 2: a hotfix gone wrong — same model, gating thresholds
	// miscalibrated so every window gates. The CRC envelope cannot catch a
	// semantic bug, but the canary soak can: the on-machine guardrail
	// trips repeatedly, the health gate fails, and the rollout halts and
	// rolls back the canary plus the early-ring machines flashed while it
	// soaked.
	badCtrl := *trained
	badCtrl.Name = trained.Name + "-hotfix"
	badCtrl.ThresholdHigh, badCtrl.ThresholdLow = -1e9, -1e9
	var badImage bytes.Buffer
	if err := core.SaveController(&badImage, &badCtrl); err != nil {
		log.Fatal(err)
	}
	badCfg := staged
	badCfg.Name = "datacenter/hotfix"
	badCfg.CorruptProb = 0 // the push itself is clean; the bug is in the bits
	bad := campaign(badCfg, badImage.Bytes(), wl)
	fmt.Printf("\nmiscalibrated hotfix, same staged policy:\n")
	if bad.RolledBack {
		fmt.Printf("  caught at ring %d: %s\n", bad.HaltedRing, bad.HaltReason)
		fmt.Printf("  blast radius: %d of %d machines, all %d rolled back (%d rollback flashes retried)\n",
			bad.Flashed, bad.Machines, bad.RollbackFlashes, bad.RollbackRetries)
	} else {
		fmt.Printf("  NOT caught: %d machines running the bad image\n", bad.Installed)
	}

	// Act 3: the counterfactual — the same bad image through an ungated
	// big-bang push (the zero gate), the deployment style the rollout
	// controller replaces.
	bigbang := campaign(ctrlplane.Config{
		Name: "datacenter/bigbang", Machines: 24, RingFracs: []float64{1},
		FlashPerTick: 4, FlashFailProb: 0.25, FlashRetries: 4,
		Seed: 11,
	}, badImage.Bytes(), wl)
	fmt.Printf("\nsame hotfix, ungated big-bang push:\n")
	fmt.Printf("  %d of %d machines running the bad image after %d ticks, nothing rolled back\n",
		bigbang.Installed, bigbang.Machines, bigbang.Ticks)

	fmt.Printf("\nThe gate turns a fleet-wide regression into a %d-machine\n", bad.Flashed)
	fmt.Printf("incident, for a staged rollout of %d ticks against the big bang's\n", good.Ticks)
	fmt.Printf("%d — the deployment half of the paper's post-silicon adaptation story.\n", bigbang.Ticks)
}

// campaign runs one rollout on the control plane.
func campaign(cfg ctrlplane.Config, img []byte, wl fleet.Workload) *ctrlplane.Report {
	s, err := ctrlplane.New(cfg, img, wl)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := s.Run()
	if err != nil {
		log.Fatal(err)
	}
	return rep
}
