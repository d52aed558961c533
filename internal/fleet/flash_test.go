package fleet

import (
	"bytes"
	"fmt"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/mcu"
	"clustergate/internal/ml"
	"clustergate/internal/ml/linear"
	"clustergate/internal/telemetry"
)

// testImage seals a never-gating controller (a constant-low logistic);
// it simulates nothing, so the flash-step tests run in -short.
func testImage(t *testing.T, cfg dataset.Config) []byte {
	t.Helper()
	cs := telemetry.NewStandardCounterSet()
	cols, err := core.ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	n := len(cols)
	std := make([]float64, n)
	for i := range std {
		std[i] = 1
	}
	lg := &linear.Logistic{
		W: make([]float64, n), B: -4, // sigmoid(-4) ≈ 0.02: never gate
		Scaler: &ml.Scaler{Mean: make([]float64, n), Std: std},
	}
	g := &core.GatingController{
		Name:     "fleet-never-gate",
		HighPerf: core.PointPredictor{M: lg}, LowPower: core.PointPredictor{M: lg},
		ThresholdHigh: 0.5, ThresholdLow: 0.5,
		Interval: cfg.Interval, Granularity: 2 * cfg.Interval,
		Counters: cs, Columns: cols,
		SLA: dataset.SLA{PSLA: 0.9},
	}
	var buf bytes.Buffer
	if err := core.SaveController(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// coldFlash is the flash step without the shared decode: every attempt
// decodes its own payload from scratch through the full loader. It is the
// reference TestFlashMatchesColdDecode holds FlashSpec.Flash to.
func coldFlash(s *FlashSpec, machine, phase int) FlashOutcome {
	var out FlashOutcome
	for a := 0; ; a++ {
		if coldAttempt(s, machine, phase, a, &out) || a >= s.Retries {
			return out
		}
	}
}

func coldAttempt(s *FlashSpec, machine, phase, a int, out *FlashOutcome) bool {
	out.Attempts++
	if a < s.Retries && fault.Hash01(s.Seed^saltFlash, opKey(machine, phase), a) < s.FailProb {
		out.Retries++
		return false
	}
	if s.Img == nil {
		out.Installed = true
		return true
	}
	payload := s.Img
	corrupt := s.CorruptProb > 0 &&
		fault.Hash01(s.Seed^saltCorrupt, opKey(machine, phase), a) < s.CorruptProb
	if corrupt {
		payload = append([]byte(nil), s.Img...)
		fault.FlipBits(payload,
			int64(fault.HashU64(s.Seed^saltFlip, opKey(machine, phase), a)), s.CorruptBits)
	}
	if s.Verify {
		g, err := core.LoadController(bytes.NewReader(payload))
		if err != nil {
			out.CRCRejects++
			return false
		}
		out.Installed, out.Corrupt, out.Ctrl = true, corrupt, g
		return true
	}
	g, err := core.LoadControllerUnverified(bytes.NewReader(payload))
	if err != nil {
		out.Installed, out.Corrupt, out.Crashed = true, corrupt, true
		return true
	}
	out.Installed, out.Corrupt, out.Ctrl = true, corrupt, g
	return true
}

// sealedContent re-seals a decoded controller, so two controllers compare
// by what they decoded to (NaN parameters from a corrupted payload
// included) rather than by pointer.
func sealedContent(t *testing.T, g *core.GatingController) []byte {
	t.Helper()
	if g == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := core.SaveController(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlashMatchesColdDecode is the differential test of the shared
// decode: over 240 machines, both phases, verified and unverified
// installs, and three corruption pressures under transient failures,
// every FlashOutcome field equals the cold-decode reference's, the
// controller compared by content. Without corruption the whole sweep of
// one spec decodes the image exactly once.
func TestFlashMatchesColdDecode(t *testing.T) {
	img := testImage(t, dataset.DefaultConfig())
	const machines = 240
	sawCorrupt, sawCrash, sawReject := false, false, false
	for _, verify := range []bool{true, false} {
		for _, corrupt := range []float64{0, 0.2, 0.45} {
			spec := FlashSpec{
				Seed: 5, Img: img, Decode: DecodeOnce(img), Verify: verify,
				CorruptProb: corrupt, CorruptBits: 4, FailProb: 0.25, Retries: 3,
				Scope: "flash-diff",
			}
			decodes0 := flashDecodes.Value()
			for _, phase := range []int{PhaseInstall, PhaseRollback} {
				for m := 0; m < machines; m++ {
					name := fmt.Sprintf("verify=%v corrupt=%v phase=%d machine=%d", verify, corrupt, phase, m)
					got, want := spec.Flash(m, phase), coldFlash(&spec, m, phase)
					if !bytes.Equal(sealedContent(t, got.Ctrl), sealedContent(t, want.Ctrl)) {
						t.Fatalf("%s: controller differs from a cold decode", name)
					}
					got.Ctrl, want.Ctrl = nil, nil
					if got != want {
						t.Fatalf("%s: outcome %+v, cold decode %+v", name, got, want)
					}
					sawCorrupt = sawCorrupt || got.Corrupt
					sawCrash = sawCrash || got.Crashed
					sawReject = sawReject || got.CRCRejects > 0
				}
			}
			if decodes := flashDecodes.Value() - decodes0; corrupt == 0 && decodes != 1 {
				t.Errorf("verify=%v: %d image decodes for an uncorrupted sweep, want 1", verify, decodes)
			}
		}
	}
	if !sawCorrupt || !sawCrash || !sawReject {
		t.Fatalf("sweep covered corrupt installs=%v crashes=%v CRC rejects=%v; need all three",
			sawCorrupt, sawCrash, sawReject)
	}
}

// TestFlashDecodeErrorRepeats locks DecodeOnce's failure contract: an
// image whose envelope is intact but whose payload does not decode fails
// every attempt on every machine — a CRC-path rejection when verified, a
// crash when not — and never installs a nil controller.
func TestFlashDecodeErrorRepeats(t *testing.T) {
	img := mcu.SealImage([]byte("an intact envelope around no controller"))
	for _, verify := range []bool{true, false} {
		spec := FlashSpec{Seed: 1, Img: img, Decode: DecodeOnce(img), Verify: verify, Retries: 2}
		for m := 0; m < 4; m++ {
			out := spec.Flash(m, PhaseInstall)
			if out.Ctrl != nil || (out.Installed && !out.Crashed) {
				t.Fatalf("verify=%v machine %d: undecodable image reported installed: %+v", verify, m, out)
			}
			if verify && out.CRCRejects != out.Attempts {
				t.Fatalf("machine %d: %d of %d attempts rejected, want all", m, out.CRCRejects, out.Attempts)
			}
		}
	}
}
