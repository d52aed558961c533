package experiments

import (
	"bytes"
	"sync"
	"testing"

	"clustergate/internal/core"
)

func TestGuardrailStudyShape(t *testing.T) {
	e := quickEnv(t)
	g, err := e.GeneralBestRF()
	if err != nil {
		t.Fatal(err)
	}
	r, err := GuardrailStudy(e, g)
	if err != nil {
		t.Fatal(err)
	}
	if r.BareWorst <= 0 || r.BareWorst > 1.01 || r.GuardedWorst <= 0 || r.GuardedWorst > 1.01 {
		t.Fatalf("worst-case performance out of range: %+v", r)
	}
	// The guardrail can only improve (or match) the worst case.
	if r.GuardedWorst < r.BareWorst-0.02 {
		t.Errorf("guardrail worsened worst-case perf: %.3f vs %.3f", r.GuardedWorst, r.BareWorst)
	}
}

func TestGranularitySweepShape(t *testing.T) {
	e := quickEnv(t)
	pts, err := GranularitySweep(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	// Budget feasibility: 10k/20k infeasible for the 545-op forest, 40k+
	// feasible.
	if pts[0].FitsBudget || pts[1].FitsBudget {
		t.Error("10k/20k granularity should not fit the MCU budget")
	}
	if !pts[2].FitsBudget {
		t.Error("40k granularity should fit the MCU budget")
	}
	// Coarser adaptation should not dramatically increase PPW (the paper's
	// claim is the opposite direction: fine granularity maximises PPW).
	if pts[len(pts)-1].PPW > pts[2].PPW+0.08 {
		t.Errorf("100k PPW %.3f far above 40k PPW %.3f; granularity trend inverted",
			pts[len(pts)-1].PPW, pts[2].PPW)
	}
}

// TestGeneralBestRFTrainedOnce: an env trains its general Best RF once —
// repeated and concurrent calls on a zero-initialised Env return one
// controller — and its sealed image is byte-identical to the one
// core.BuildBestRF seals from the same inputs.
func TestGeneralBestRFTrainedOnce(t *testing.T) {
	q := quickEnv(t)
	e := &Env{Cfg: q.Cfg, CS: q.CS, Spec: q.Spec, Seed: q.Seed, HDTRTel: q.HDTRTel, PFColumns: q.PFColumns}
	got := make([]*core.GatingController, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := e.GeneralBestRF()
			if err != nil {
				t.Error(err)
			}
			got[i] = g
		}()
	}
	wg.Wait()
	again, err := e.GeneralBestRF()
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if g == nil || g != again {
			t.Fatalf("call %d returned %p, want the one controller %p", i, g, again)
		}
	}

	want, err := core.BuildBestRF(e.buildInputs(0.9))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := core.SaveController(&a, again); err != nil {
		t.Fatal(err)
	}
	if err := core.SaveController(&b, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("GeneralBestRF image (%d B) differs from core.BuildBestRF's (%d B)", a.Len(), b.Len())
	}
}
