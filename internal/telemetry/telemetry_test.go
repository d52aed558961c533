package telemetry

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"clustergate/internal/uarch"
)

func TestStandardCounterSetSize(t *testing.T) {
	cs := NewStandardCounterSet()
	if cs.Len() != TotalCounters {
		t.Fatalf("counters = %d, want %d", cs.Len(), TotalCounters)
	}
	seen := map[string]bool{}
	for _, n := range cs.Names {
		if seen[n] {
			t.Fatalf("duplicate counter name %q", n)
		}
		seen[n] = true
	}
}

func TestExtractBaseOrder(t *testing.T) {
	ev := uarch.Events{
		UopCacheMisses: 7, L2SilentEvictions: 3, WrongPathUops: 11,
		SQOccupancySum: 13, L1DReads: 17, StallCycles: 19,
		Instrs: 10_000, Cycles: 5_000,
	}
	base := ExtractBase(ev)
	if len(base) != NumBase {
		t.Fatalf("base length = %d, want %d", len(base), NumBase)
	}
	checks := map[string]float64{
		"uop_cache_misses":      7,
		"l2_silent_evictions":   3,
		"wrong_path_uops":       11,
		"store_queue_occupancy": 13,
		"l1d_reads":             17,
		"stall_count":           19,
		"instructions":          10_000,
		"cycles":                5_000,
	}
	cs := NewStandardCounterSet()
	for name, want := range checks {
		idx := cs.Index(name)
		if idx < 0 {
			t.Fatalf("counter %q missing", name)
		}
		if base[idx] != want {
			t.Errorf("%s = %v, want %v", name, base[idx], want)
		}
	}
}

func TestSnapshotBasePassthrough(t *testing.T) {
	cs := NewStandardCounterSet()
	base := make([]float64, NumBase)
	for i := range base {
		base[i] = float64(i + 1)
	}
	out := cs.Snapshot(base, false, rand.New(rand.NewSource(1)))
	for i := 0; i < NumBase; i++ {
		if out[i] != base[i] {
			t.Errorf("base counter %d = %v, want %v", i, out[i], base[i])
		}
	}
}

func TestSnapshotNormalization(t *testing.T) {
	cs := NewStandardCounterSet()
	base := make([]float64, NumBase)
	instrIdx := cs.Index("instructions")
	base[instrIdx] = 10_000
	base[NumBase-1] = 4_000 // cycles
	out := cs.Snapshot(base, true, rand.New(rand.NewSource(1)))
	if got := out[instrIdx]; got != 2.5 {
		t.Errorf("normalized instructions (IPC) = %v, want 2.5", got)
	}
	if got := out[NumBase-1]; got != 1.0 {
		t.Errorf("normalized cycles = %v, want 1.0", got)
	}
}

func TestSnapshotZeroCyclesNoNaN(t *testing.T) {
	cs := NewStandardCounterSet()
	base := make([]float64, NumBase)
	base[0] = 5
	out := cs.Snapshot(base, true, rand.New(rand.NewSource(1)))
	for i, v := range out {
		if v != v { // NaN
			t.Fatalf("counter %d is NaN with zero cycles", i)
		}
	}
}

func TestSnapshotDeterministicGivenSeed(t *testing.T) {
	cs := NewStandardCounterSet()
	base := make([]float64, NumBase)
	for i := range base {
		base[i] = 100
	}
	a := cs.Snapshot(base, false, rand.New(rand.NewSource(9)))
	b := cs.Snapshot(base, false, rand.New(rand.NewSource(9)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("counter %d differs across identical seeds", i)
		}
	}
}

func TestScaledCountersTrackBase(t *testing.T) {
	cs := NewStandardCounterSet()
	base := make([]float64, NumBase)
	idx := cs.Index("loads_retired")
	base[idx] = 1000
	out := cs.Snapshot(base, false, rand.New(rand.NewSource(2)))
	half := cs.Index("loads_retired_x1") // scale 0.5
	if half < 0 {
		t.Fatal("scaled counter missing")
	}
	if out[half] != 500 {
		t.Errorf("loads_retired_x1 = %v, want 500", out[half])
	}
}

func TestDebugCountersMostlyZero(t *testing.T) {
	cs := NewStandardCounterSet()
	base := make([]float64, NumBase)
	for i := range base {
		base[i] = 1000
	}
	rng := rand.New(rand.NewSource(3))
	zero, total := 0, 0
	for trial := 0; trial < 50; trial++ {
		out := cs.Snapshot(base, false, rng)
		for i := NumBase; i < cs.Len(); i++ {
			if cs.Names[i][:5] == "debug" {
				total++
				if out[i] == 0 {
					zero++
				}
			}
		}
	}
	frac := float64(zero) / float64(total)
	if frac < 0.9 {
		t.Errorf("debug counters zero fraction = %.3f, want ≥0.9", frac)
	}
	if frac == 1.0 {
		t.Error("debug counters never fire; low-activity screen untestable")
	}
}

func TestAggregate(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	sum := Aggregate([][]float64{a, b})
	if sum[0] != 11 || sum[1] != 22 || sum[2] != 33 {
		t.Errorf("Aggregate = %v", sum)
	}
	if Aggregate(nil) != nil {
		t.Error("Aggregate(nil) should be nil")
	}
}

func TestTable4AndExpertNamesExist(t *testing.T) {
	cs := NewStandardCounterSet()
	if got := len(Table4Names()); got != 12 {
		t.Fatalf("Table4Names = %d entries, want 12", got)
	}
	if got := len(ExpertNames()); got != 8 {
		t.Fatalf("ExpertNames = %d entries, want 8", got)
	}
	for _, n := range append(Table4Names(), ExpertNames()...) {
		if cs.Index(n) < 0 {
			t.Errorf("counter %q not in standard set", n)
		}
	}
}

// TestStandardCounterSetCopies locks the shared-template contract: every
// NewStandardCounterSet call equals a from-scratch build, and a caller
// mutating its copy leaves later copies untouched, with several
// goroutines copying and mutating at once as concurrent image decodes do.
func TestStandardCounterSetCopies(t *testing.T) {
	fresh := buildStandardCounterSet()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				cs := NewStandardCounterSet()
				if !reflect.DeepEqual(cs, fresh) {
					t.Error("counter-set copy differs from a from-scratch build")
					return
				}
				cs.Names[0] = "clobbered"
				cs.specs[0] = counterSpec{kind: kindDebug}
				cs.Names = append(cs.Names[:1], "appended")
				cs.specs = cs.specs[:1]
			}
		}()
	}
	wg.Wait()
}
