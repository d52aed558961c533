package counters

import (
	"math/rand"
	"reflect"
	"testing"
)

// buildTraces synthesises per-trace telemetry with known structure:
//   - counter 0: strong independent signal A
//   - counters 1-3: scaled/noisy copies of A (redundant group)
//   - counter 4: strong independent signal B
//   - counter 5: copy of B
//   - counter 6: near-constant signal (tiny relative variation)
//   - counter 7: mostly-zero debug counter
//   - counter 8: constant (zero variance)
func buildTraces(nTraces, intervals int, seed int64) [][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	traces := make([][][]float64, nTraces)
	for t := range traces {
		tr := make([][]float64, intervals)
		for i := range tr {
			a := rng.NormFloat64() * 10
			b := rng.NormFloat64() * 8
			c := 5 + rng.NormFloat64()*0.001
			row := []float64{
				a,
				2*a + rng.NormFloat64()*0.1,
				0.5*a + rng.NormFloat64()*0.1,
				-a + rng.NormFloat64()*0.1,
				b,
				b + rng.NormFloat64()*0.1,
				c,
				0,
				7,
			}
			if rng.Float64() < 0.02 {
				row[7] = 1 // debug counter rarely fires
			}
			tr[i] = row
		}
		traces[t] = tr
	}
	return traces
}

func TestScreenLowActivityRemovesDebugCounters(t *testing.T) {
	traces := buildTraces(20, 50, 1)
	keep := ScreenLowActivity(traces, DefaultScreens())
	kept := map[int]bool{}
	for _, c := range keep {
		kept[c] = true
	}
	if kept[7] {
		t.Error("mostly-zero debug counter survived the activity screen")
	}
	for _, c := range []int{0, 1, 4, 8} {
		if !kept[c] {
			t.Errorf("active counter %d removed by the activity screen", c)
		}
	}
}

func TestScreenLowActivityEmpty(t *testing.T) {
	if got := ScreenLowActivity(nil, DefaultScreens()); got != nil {
		t.Error("empty traces should return nil")
	}
}

func TestScreenLowStd(t *testing.T) {
	traces := buildTraces(10, 100, 2)
	var x [][]float64
	for _, tr := range traces {
		x = append(x, tr...)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	keep := ScreenLowStd(x, all, Screens{StdKeepFrac: 0.5})
	if len(keep) != 4 {
		t.Fatalf("kept %d counters, want 4 (top half of 9)", len(keep))
	}
	kept := map[int]bool{}
	for _, c := range keep {
		kept[c] = true
	}
	if kept[6] || kept[7] || kept[8] {
		t.Errorf("low-variance counters survived the σ screen: %v", keep)
	}
	if !kept[1] {
		t.Errorf("highest-variance counter (2A) removed: %v", keep)
	}
}

func TestPFSelectPicksAcrossGroups(t *testing.T) {
	traces := buildTraces(10, 200, 3)
	var x [][]float64
	for _, tr := range traces {
		x = append(x, tr...)
	}
	candidates := []int{0, 1, 2, 3, 4, 5} // group A (0-3) and group B (4-5)
	sel, err := PFSelect(x, candidates, PFConfig{R: 2, Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d counters, want 2", len(sel))
	}
	groupOf := func(c int) string {
		if c <= 3 {
			return "A"
		}
		return "B"
	}
	if groupOf(sel[0]) == groupOf(sel[1]) {
		t.Errorf("both selections (%v) from the same redundancy group; PF failed to exclude redundant counters", sel)
	}
}

func TestPFSelectTerminatesWhenGroupsExhausted(t *testing.T) {
	traces := buildTraces(5, 100, 4)
	var x [][]float64
	for _, tr := range traces {
		x = append(x, tr...)
	}
	// Ask for more counters than distinct groups exist.
	sel, err := PFSelect(x, []int{0, 1, 2, 3, 4, 5}, PFConfig{R: 10, Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 || len(sel) > 6 {
		t.Errorf("selected %d counters from 6 candidates", len(sel))
	}
	seen := map[int]bool{}
	for _, c := range sel {
		if seen[c] {
			t.Fatalf("counter %d selected twice", c)
		}
		seen[c] = true
	}
}

func TestPFSelectErrors(t *testing.T) {
	if _, err := PFSelect(nil, []int{0}, PFConfig{R: 1}); err == nil {
		t.Error("empty samples accepted")
	}
	if _, err := PFSelect([][]float64{{1}, {2}}, []int{0}, PFConfig{R: 0}); err == nil {
		t.Error("R=0 accepted")
	}
}

func TestSelectPipeline(t *testing.T) {
	traces := buildTraces(20, 100, 5)
	sel, err := Select(traces, DefaultScreens(), PFConfig{R: 3, Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 || len(sel) > 3 {
		t.Fatalf("selected %v", sel)
	}
	for _, c := range sel {
		if c == 7 || c == 8 {
			t.Errorf("screened-out counter %d selected", c)
		}
	}
}

func TestSelectDeterministic(t *testing.T) {
	traces := buildTraces(10, 100, 6)
	a, err := Select(traces, DefaultScreens(), PFConfig{R: 3, Tau: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Select(traces, DefaultScreens(), PFConfig{R: 3, Tau: 0.5})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("selection not deterministic")
		}
	}
}

// TestPFSelectRankingPrefix: PF selection is greedy and R only ends its
// loop, so on the same data a ranking selected with a smaller R is a
// prefix of one selected with a larger R (experiments.Env.TopCounters
// serves shorter requests from its longest ranking on that basis).
func TestPFSelectRankingPrefix(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const samples, cols, factors = 80, 24, 5
		// Each column is one latent factor, scaled, plus noise of a
		// per-column width: low-noise columns of one factor are
		// interchangeable and removed together, noisier ones stay
		// selectable, so rankings are neither index order nor complete.
		factor, noise := make([]int, cols), make([]float64, cols)
		for j := range factor {
			factor[j] = rng.Intn(factors)
			noise[j] = []float64{0.05, 0.5, 2}[rng.Intn(3)]
		}
		x := make([][]float64, samples)
		for i := range x {
			lat := make([]float64, factors)
			for k := range lat {
				lat[k] = rng.NormFloat64()
			}
			x[i] = make([]float64, cols)
			for j := range x[i] {
				x[i][j] = float64(1+j%3)*lat[factor[j]] + noise[j]*rng.NormFloat64()
			}
		}
		cands := make([]int, cols)
		for j := range cands {
			cands[j] = j
		}
		cfg := DefaultPFConfig()
		cfg.R = cols
		long, err := PFSelect(x, cands, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for a := 1; a <= cols; a++ {
			cfg.R = a
			short, err := PFSelect(x, cands, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := long[:min(a, len(long))]
			if !reflect.DeepEqual(short, want) {
				t.Fatalf("seed %d: R=%d selects %v, the first %d of R=%d select %v", seed, a, short, a, cols, want)
			}
		}
	}
}
