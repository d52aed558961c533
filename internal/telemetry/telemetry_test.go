package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// referenceSnapshot is the full expansion as one loop over the set: every
// counter computed in set order, then normalised. Projections are held to
// it bit for bit.
func referenceSnapshot(cs *CounterSet, base []float64, normalize bool, rng *rand.Rand) []float64 {
	out := make([]float64, len(cs.specs))
	for i := range cs.specs {
		sp := &cs.specs[i]
		var v float64
		switch sp.kind {
		case kindBase:
			v = base[sp.src[0]]
		case kindScaled:
			v = base[sp.src[0]] * sp.coef[0]
		case kindNoisy:
			v = base[sp.src[0]]
			if v != 0 {
				v += rng.NormFloat64() * sp.noise * v
			}
		case kindSum:
			v = sp.coef[0]*base[sp.src[0]] + sp.coef[1]*base[sp.src[1]]
		case kindCombo:
			v = sp.coef[0]*base[sp.src[0]] + sp.coef[1]*base[sp.src[1]] + sp.coef[2]*base[sp.src[2]]
		case kindDebug:
			if rng.Float64() < 0.02 {
				v = sp.coef[0] * base[sp.src[0]]
			}
		}
		out[i] = v
	}
	if normalize {
		cyc := base[NumBase-1] // "cycles"
		if cyc > 0 {
			for i := range out {
				out[i] /= cyc
			}
		}
	}
	return out
}

// TestProjectionMatchesSnapshot holds projections to the reference full
// expansion: over a sequence of snapshots sharing one noise stream per
// side, every selected value matches bit for bit and, when the projection
// reads the noise stream, both streams end in the same state. Bases
// include zero signals (a noisy counter over a zero signal draws nothing),
// zero cycles and an all-zero vector, each with and without
// normalisation. A projection that reads no noise runs on a nil stream.
func TestProjectionMatchesSnapshot(t *testing.T) {
	cs := NewStandardCounterSet()
	idx := func(names ...string) []int {
		cols := make([]int, len(names))
		for j, n := range names {
			if cols[j] = cs.Index(n); cols[j] < 0 {
				t.Fatalf("counter %q missing", n)
			}
		}
		return cols
	}
	table4 := idx(Table4Names()...)
	for _, tc := range []struct {
		name  string
		cols  []int
		noisy bool
	}{
		{"all", nil, true},
		{"table4", table4, false},
		{"base+sum", idx("l1d_reads", "sum_017", "loads_retired", "sum_003", "stall_count",
			"uop_cache_hits", "sum_140", "branches", "instructions", "sum_099", "l2_misses", "cycles"), false},
		{"scaled+combo", idx("cycles_x3", "combo_000", "l1d_hits_x0", "combo_149"), false},
		{"noisy", idx("loads_retired_smp0", "instructions", "l2_misses_smp1"), true},
		{"debug", idx("debug_000", "l1d_reads"), true},
		{"noisy+debug", idx("stall_count", "debug_355", "uop_cache_misses_smp1", "sum_001", "debug_120"), true},
		{"duplicates", idx("l1d_reads", "debug_007", "l1d_reads", "fp_ops_smp0", "debug_007", "fp_ops_smp0"), true},
		{"duplicate base", idx("cycles", "cycles", "uop_cache_misses"), false},
		{"unsorted", idx("debug_300", "cycles_smp0", "combo_010", "uops_ready", "sum_149", "branches_smp1"), true},
		{"reversed table4", []int{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := cs.Project(tc.cols)
			if p.DrawsNoise() != tc.noisy {
				t.Fatalf("DrawsNoise = %v, want %v", p.DrawsNoise(), tc.noisy)
			}
			want := len(tc.cols)
			if tc.cols == nil {
				want = cs.Len()
			}
			refRNG := rand.New(rand.NewSource(41))
			var projRNG *rand.Rand
			if tc.noisy {
				projRNG = rand.New(rand.NewSource(41))
			}
			gen := rand.New(rand.NewSource(7))
			for step, base := range projectionBases(gen) {
				for _, norm := range []bool{true, false} {
					full := referenceSnapshot(cs, base, norm, refRNG)
					got := p.Snapshot(base, norm, projRNG)
					if len(got) != want {
						t.Fatalf("snapshot %d: %d values, want %d", step, len(got), want)
					}
					for j, v := range got {
						c := j
						if tc.cols != nil {
							c = tc.cols[j]
						}
						if math.Float64bits(v) != math.Float64bits(full[c]) {
							t.Fatalf("snapshot %d (normalize %v): output %d (%s) = %v, want %v",
								step, norm, j, cs.Names[c], v, full[c])
						}
					}
				}
			}
			if tc.noisy {
				if a, b := refRNG.Int63(), projRNG.Int63(); a != b {
					t.Errorf("noise stream left in another state: next draw %d, want %d", b, a)
				}
			}
		})
	}
}

// projectionBases returns base vectors covering the expansion's edge
// cases: random signals, some signals zero, zero cycles, all zero.
func projectionBases(rng *rand.Rand) [][]float64 {
	var bases [][]float64
	for k := 0; k < 24; k++ {
		b := make([]float64, NumBase)
		for i := range b {
			b[i] = float64(rng.Intn(50_000))
			if rng.Intn(3) == 0 {
				b[i] = 0
			}
		}
		switch k % 6 {
		case 4:
			b[NumBase-1] = 0 // zero cycles: normalisation is skipped
		case 5:
			clear(b)
		}
		bases = append(bases, b)
	}
	return bases
}

// TestProjectionAggregateMatchesFull holds the projection's aggregate,
// which sums only the base signals the projection reads, to the full
// aggregate: over random column lists that draw from all six counter
// kinds, with repeats, and random windows with zero signals and zero
// cycles, the snapshot of each equals the other's bit for bit, with and
// without normalisation, and leaves the noise stream in the same state.
func TestProjectionAggregateMatchesFull(t *testing.T) {
	cs := NewStandardCounterSet()
	var byKind [kindDebug + 1][]int
	for i := range cs.specs {
		k := cs.specs[i].kind
		byKind[k] = append(byKind[k], i)
	}
	gen := rand.New(rand.NewSource(17))
	bases := projectionBases(gen)
	kinds := 0
	for trial := 0; trial < 300; trial++ {
		var cols []int
		for k := range byKind {
			// Every kind in even trials; a random subset, often without
			// any noisy or debug counter, in odd ones.
			n := 1 + gen.Intn(3)
			if trial%2 == 1 {
				n = gen.Intn(3) - 1
			}
			for ; n > 0; n-- {
				cols = append(cols, byKind[k][gen.Intn(len(byKind[k]))])
			}
		}
		if len(cols) == 0 {
			continue
		}
		for r := gen.Intn(3); r > 0; r-- {
			cols = append(cols, cols[gen.Intn(len(cols))])
		}
		gen.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		seen := map[counterKind]bool{}
		for _, c := range cols {
			seen[cs.specs[c].kind] = true
		}
		if len(seen) == len(byKind) {
			kinds++
		}

		p := cs.Project(cols)
		window := make([][]float64, 1+gen.Intn(4))
		for i := range window {
			window[i] = bases[gen.Intn(len(bases))]
		}
		full := Aggregate(window)
		read := p.AggregateInto(nil, window)
		seed := gen.Int63()
		fullRNG, readRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for _, norm := range []bool{true, false} {
			want := p.Snapshot(full, norm, fullRNG)
			got := p.Snapshot(read, norm, readRNG)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("trial %d, columns %v (normalize %v): output %d (%s) = %v from the read signals, %v from all",
						trial, cols, norm, j, cs.Names[cols[j]], got[j], want[j])
				}
			}
		}
		if a, b := fullRNG.Int63(), readRNG.Int63(); a != b {
			t.Fatalf("trial %d, columns %v: noise stream left in another state", trial, cols)
		}
	}
	if kinds == 0 {
		t.Fatal("no column list drew from all six kinds")
	}
}

// TestProjectMemo: concurrent Project calls on one set return one
// projection per column list, whatever slice holds the list; the set
// keeps a copy of the list, so changing the caller's slice afterwards
// changes neither the memo nor its projection; and each set has its own
// memo.
func TestProjectMemo(t *testing.T) {
	cs := NewStandardCounterSet()
	lists := [][]int{{0, 1, 2}, {5, 5, 900}, nil, {}, {935, 0}, {2, 1, 0}, {60, 200, 400, 800}}
	const workers = 8
	got := make([][]*Projection, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i, l := range lists {
					p := cs.Project(slices.Clone(l))
					if r == 0 {
						got[w] = append(got[w], p)
					} else if p != got[w][i] {
						t.Errorf("list %v: a repeated call returned another projection", l)
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, l := range lists {
		for w := range got {
			if got[w][i] != got[0][i] {
				t.Fatalf("list %v: workers got different projections", l)
			}
		}
		for j := 0; j < i; j++ {
			if got[0][i] == got[0][j] {
				t.Errorf("lists %v and %v share a projection", l, lists[j])
			}
		}
	}

	cols := []int{3, 4}
	p := cs.Project(cols)
	cols[0] = 7
	if cs.Project([]int{3, 4}) != p {
		t.Error("changing the caller's slice changed the memo")
	}
	base := make([]float64, NumBase)
	for i := range base {
		base[i] = float64(i + 1)
	}
	if v := p.Snapshot(base, false, nil); v[0] != base[3] || v[1] != base[4] {
		t.Errorf("changing the caller's slice changed the projection: snapshot %v", v)
	}
	if q := cs.Project(cols); q == p || q.Snapshot(base, false, nil)[0] != base[7] {
		t.Error("the changed list did not get its own projection")
	}
	if NewStandardCounterSet().Project([]int{3, 4}) == p {
		t.Error("two counter sets share a projection")
	}
}
