package core

import (
	"bytes"
	"errors"
	"testing"

	"clustergate/internal/fault"
	"clustergate/internal/mcu"
)

// constScorer is a zero-cost stand-in predictor for structural checks.
type constScorer struct{}

func (constScorer) Score([]float64) float64 { return 0 }

func TestValidateChargesWatchdogOps(t *testing.T) {
	spec := mcu.DefaultSpec()
	g := &GatingController{
		Name: "wd", Interval: 10_000, Granularity: 40_000,
		OpsPerPrediction: 545, WatchdogOps: 144,
		HighPerf: PointPredictor{M: constScorer{}},
		LowPower: PointPredictor{M: constScorer{}},
	}
	if err := g.Validate(spec); err == nil {
		t.Fatal("545 model + 144 watchdog ops passed a 625-op 40k budget")
	}
	g.Granularity, g.WatchdogOps = 50_000, 180
	if err := g.Validate(spec); err != nil {
		t.Fatalf("545 model + 180 watchdog ops in a 781-op 50k budget rejected: %v", err)
	}
}

func TestGuardedBuildReservesWatchdog(t *testing.T) {
	e := env(t)
	in := e.in
	in.Guardrail = true
	guarded, err := BuildBestRF(in)
	if err != nil {
		t.Fatal(err)
	}
	// The bare sizing is pure arithmetic on the model's op cost, so the
	// guarded build's coarsening can be checked without a second build.
	spec := mcu.DefaultSpec()
	wd := mcu.WatchdogCost(GuardrailSignals)
	bareG := spec.FinestGranularity(guarded.OpsPerPrediction, guarded.Interval)
	if guarded.Granularity <= bareG {
		t.Fatalf("guarded granularity %d not coarser than bare %d (watchdog reserve ignored)",
			guarded.Granularity, bareG)
	}
	if got := spec.FinestGranularityGuarded(guarded.OpsPerPrediction, guarded.Interval, wd); got != guarded.Granularity {
		t.Fatalf("guarded granularity %d, want the guarded-finest %d", guarded.Granularity, got)
	}
	k := guarded.Granularity / guarded.Interval
	if want := wd.Ops * k; guarded.WatchdogOps != want {
		t.Fatalf("guarded WatchdogOps = %d, want %d (%d intervals)", guarded.WatchdogOps, want, k)
	}
	if err := guarded.Validate(spec); err != nil {
		t.Fatal(err)
	}

	// The guarded controller round-trips through the sealed image with its
	// watchdog reserve intact.
	var buf bytes.Buffer
	if err := SaveController(&buf, guarded); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	loaded, err := LoadController(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.WatchdogOps != guarded.WatchdogOps {
		t.Fatalf("WatchdogOps lost in image round trip: %d vs %d",
			loaded.WatchdogOps, guarded.WatchdogOps)
	}

	// A flipped CRC byte leaves the payload intact: verification must
	// reject the image, while the flag-off path deploys it anyway — the
	// exact failure the detector exists to prevent.
	crcFlip := append([]byte(nil), img...)
	crcFlip[9] ^= 1
	if _, err := LoadController(bytes.NewReader(crcFlip)); !errors.Is(err, mcu.ErrImageCorrupt) {
		t.Fatalf("corrupted image load: got %v, want ErrImageCorrupt", err)
	}
	unverified, err := LoadControllerUnverified(bytes.NewReader(crcFlip))
	if err != nil {
		t.Fatalf("unverified load of a CRC-corrupt image: %v", err)
	}
	if unverified.Name != guarded.Name {
		t.Fatal("unverified load decoded the wrong controller")
	}

	// A payload bit flip is likewise rejected by the verified path.
	payFlip := append([]byte(nil), img...)
	payFlip[len(payFlip)-10] ^= 0x10
	if _, err := LoadController(bytes.NewReader(payFlip)); !errors.Is(err, mcu.ErrImageCorrupt) {
		t.Fatalf("payload-corrupt image load: got %v, want ErrImageCorrupt", err)
	}
}

// TestDeployDRAMDerateDegradesExecution proves the derate fault perturbs
// real execution in the deployment loop — the adaptive span slows down —
// while the recorded reference span is untouched.
func TestDeployDRAMDerateDegradesExecution(t *testing.T) {
	e := env(t)
	g := scriptedController(e, 0.0) // never gate: both runs stay in high-perf mode
	bare, err := DeployWithOptions(g, e.spec.Traces[0], e.specTel[0], e.cfg, e.pm, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.NewInjector(fault.Plan{Seed: 5, Rules: []fault.Rule{
		{Class: fault.DRAMDerate, Rate: 1, Burst: 1, Factor: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	derated, err := DeployWithOptions(g, e.spec.Traces[0], e.specTel[0], e.cfg, e.pm,
		DeployOptions{Injector: inj})
	if err != nil {
		t.Fatal(err)
	}
	if derated.InjectedFaults == 0 {
		t.Fatal("rate-1 derate plan injected nothing")
	}
	if derated.Adaptive.Instrs != bare.Adaptive.Instrs {
		t.Fatalf("instruction counts diverged: %d vs %d", derated.Adaptive.Instrs, bare.Adaptive.Instrs)
	}
	if derated.Adaptive.Cycles <= bare.Adaptive.Cycles {
		t.Errorf("derated adaptive span took %d cycles, baseline %d; DRAM derate had no execution effect",
			derated.Adaptive.Cycles, bare.Adaptive.Cycles)
	}
	if derated.Reference.Cycles != bare.Reference.Cycles {
		t.Errorf("reference span shifted under derate: %d vs %d (must replay recorded telemetry)",
			derated.Reference.Cycles, bare.Reference.Cycles)
	}
	// SLA accounting uses the shifted real IPC against the clean reference.
	if derated.Adaptive.IPC() >= bare.Adaptive.IPC() {
		t.Errorf("derated adaptive IPC %.3f not below baseline %.3f",
			derated.Adaptive.IPC(), bare.Adaptive.IPC())
	}
}
