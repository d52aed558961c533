package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"clustergate/internal/dataset"
	"clustergate/internal/metrics"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// fixedScorer returns a fixed per-sample score keyed by the first feature.
type fixedScorer struct{ thr float64 }

func (f fixedScorer) Score(x []float64) float64 {
	if x[0] >= f.thr {
		return 0.9
	}
	return 0.1
}

func TestCalibrateThresholdRSVConservativeFloor(t *testing.T) {
	// A model that is aggressively wrong should be pushed to a high
	// threshold; one that is right keeps the 0.5 floor.
	mkTrace := func(x0 float64, y int, n int) *dataset.LabeledTrace {
		lt := &dataset.LabeledTrace{App: "a"}
		for i := 0; i < n; i++ {
			lt.X = append(lt.X, []float64{x0})
			lt.Y = append(lt.Y, y)
		}
		return lt
	}
	win := metrics.SLAWindow{W: 4}

	// Wrong model: scores 0.9 on truth-0 samples.
	wrong := []*dataset.LabeledTrace{mkTrace(1.0, 0, 16)}
	thr := CalibrateThresholdRSV(fixedScorer{thr: 0.5}, wrong, win, 0.01)
	if thr <= 0.9 {
		t.Errorf("wrong model calibrated to %v; should exceed its score 0.9", thr)
	}

	// Right model: scores 0.9 only on truth-1 samples.
	right := []*dataset.LabeledTrace{mkTrace(1.0, 1, 16), mkTrace(0.0, 0, 16)}
	thr = CalibrateThresholdRSV(fixedScorer{thr: 0.5}, right, win, 0.01)
	if thr != 0.5 {
		t.Errorf("correct model calibrated to %v; want the 0.5 floor", thr)
	}

	// No traces → neutral threshold.
	if thr := CalibrateThresholdRSV(fixedScorer{}, nil, win, 0.01); thr != 0.5 {
		t.Errorf("empty calibration = %v, want 0.5", thr)
	}
}

func TestWindowVectorsColumnSelection(t *testing.T) {
	cs := telemetry.NewStandardCounterSet()
	g := &GatingController{
		Counters: cs,
		Columns:  []int{0, 16}, // uop_cache_misses, instructions
		Interval: 10_000,
	}
	rng := rand.New(rand.NewSource(1))
	base1 := make([]float64, telemetry.NumBase)
	base2 := make([]float64, telemetry.NumBase)
	base1[0], base1[16], base1[telemetry.NumBase-1] = 100, 10_000, 5_000
	base2[0], base2[16], base2[telemetry.NumBase-1] = 300, 10_000, 5_000

	var vecs windowBuf
	agg, per, _ := vecs.fill(g.Counters.Project(g.Columns), [][]float64{base1, base2}, rng, ReadsBoth)
	if len(agg) != 2 || len(per) != 2 || len(per[0]) != 2 {
		t.Fatalf("vector shapes: agg=%d per=%dx%d", len(agg), len(per), len(per[0]))
	}
	// Aggregate: (100+300)/(5000+5000) = 0.04; per-interval: 0.02 and 0.06.
	if agg[0] != 0.04 {
		t.Errorf("aggregate uop misses/cycle = %v, want 0.04", agg[0])
	}
	if per[0][0] != 0.02 || per[1][0] != 0.06 {
		t.Errorf("per-interval values = %v/%v, want 0.02/0.06", per[0][0], per[1][0])
	}
	// Aggregate IPC = 20000/10000 = 2.
	if agg[1] != 2 {
		t.Errorf("aggregate IPC = %v, want 2", agg[1])
	}
}

func TestDecideUsesModeSpecificModelAndThreshold(t *testing.T) {
	g := &GatingController{
		HighPerf:      scriptedPredictor(0.7),
		LowPower:      scriptedPredictor(0.7),
		ThresholdHigh: 0.6,
		ThresholdLow:  0.8,
	}
	if got := g.decide(uarch.ModeHighPerf, nil, nil); got != 1 {
		t.Error("high-perf model at threshold 0.6 should gate on score 0.7")
	}
	if got := g.decide(uarch.ModeLowPower, nil, nil); got != 0 {
		t.Error("low-power model at threshold 0.8 should not gate on score 0.7")
	}
}

// recordingPredictor keeps a copy of every window it scores, alternating
// its answer so the deployment switches modes. It copies because the
// deployment refills the vectors it passes for the next window. It
// declares that it reads the vectors in reads, and keeps what it is given.
type recordingPredictor struct {
	reads Inputs
	agg   [][]float64
	per   [][][]float64
}

func (p *recordingPredictor) Reads() Inputs { return p.reads }

func (p *recordingPredictor) ScoreWindow(agg []float64, per [][]float64) float64 {
	p.agg = append(p.agg, slices.Clone(agg))
	kept := make([][]float64, len(per))
	for i, v := range per {
		kept[i] = slices.Clone(v)
	}
	p.per = append(p.per, kept)
	return float64(len(p.agg) % 2)
}

// scriptedSource serves pre-made intervals in order, whatever the mode.
type scriptedSource struct{ ivs []StoredInterval }

func newScriptedSource(bases [][]float64) *scriptedSource {
	s := &scriptedSource{}
	for _, b := range bases {
		s.ivs = append(s.ivs, NewStoredInterval(b))
	}
	return s
}

func (s *scriptedSource) NextInterval(gidx int, _ uarch.Mode, _ float64) *StoredInterval {
	if gidx >= len(s.ivs) {
		return nil
	}
	return &s.ivs[gidx]
}

// TestDeploySnapshotsMatchFullExpansion holds the deployment's projected
// snapshots to the full expansion: over a scripted interval source, the
// vectors each predictor receives equal the all-columns snapshots drawn
// from the deployment's noise stream (newDeployRNG of the trace seed) in
// decision order, gathered to the controller's columns. The columns
// include a noisy and a debug counter, which read that stream, and a
// repeated base counter; a Table-4 controller, which reads no noise,
// must get the same values with no stream at all. Each column set is
// deployed by a predictor that reads both window vectors and by a point
// model, which reads the aggregate only and gets no per-interval
// vectors. The deployment takes only the snapshots its model reads, one
// per window for the point model on Table 4, unless the projection draws
// noise: then it takes all k+1 per window, so the stream does not depend
// on the model. Each deployment adds its snapshots to the telemetry
// counters once.
func TestDeploySnapshotsMatchFullExpansion(t *testing.T) {
	cs := telemetry.NewStandardCounterSet()
	noisyCols, err := ColumnsByName(cs, []string{"l2_misses_smp0", "instructions", "debug_042", "stall_count", "instructions"})
	if err != nil {
		t.Fatal(err)
	}
	table4, err := ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	const intervals, k = 24, 2
	gen := rand.New(rand.NewSource(5))
	tr := &trace.Trace{Name: "scripted", Seed: 4242}
	ref := &dataset.TraceTelemetry{TraceName: tr.Name, Seed: tr.Seed}
	var bases [][]float64
	for i := 0; i < intervals; i++ {
		b := make([]float64, telemetry.NumBase)
		for j := range b {
			if gen.Intn(4) > 0 { // a quarter of the signals read zero
				b[j] = float64(1 + gen.Intn(20_000))
			}
		}
		if i == 5 {
			b[telemetry.NumBase-1] = 0 // zero cycles
		}
		bases = append(bases, b)
		rec := dataset.IntervalRecord{Base: b, IPC: 1 + gen.Float64()}
		ref.HighPerf = append(ref.HighPerf, rec)
		ref.LowPower = append(ref.LowPower, rec)
	}
	snapshots := obs.NewCounter("telemetry.snapshots")
	noisy := obs.NewCounter("telemetry.snapshots.noisy")

	for _, tc := range []struct {
		name          string
		cols          []int
		draws         bool
		reads         Inputs
		perWindowSnap int
	}{
		{"noisy+debug", noisyCols, true, ReadsBoth, k + 1},
		{"table4", table4, false, ReadsBoth, k + 1},
		{"noisy+debug/point", noisyCols, true, ReadsAggregate, k + 1},
		{"table4/point", table4, false, ReadsAggregate, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &recordingPredictor{reads: tc.reads}
			g := &GatingController{
				Name: tc.name, HighPerf: p, LowPower: p,
				ThresholdHigh: 0.5, ThresholdLow: 0.5,
				Interval: 10_000, Granularity: k * 10_000,
				Counters: cs, Columns: tc.cols, SLA: dataset.SLA{PSLA: 0.9},
			}
			taken, drew := snapshots.Value(), noisy.Value()
			res, err := DeployFrom(g, tr, ref, power.DefaultModel(), DeployOptions{},
				func() IntervalSource { return newScriptedSource(bases) })
			if err != nil {
				t.Fatal(err)
			}
			windows := intervals/k - 2
			if len(res.Pred) != windows || len(p.agg) != windows {
				t.Fatalf("%d decisions and %d scored windows, want %d", len(res.Pred), len(p.agg), windows)
			}
			gather := func(full []float64) []float64 {
				out := make([]float64, len(tc.cols))
				for j, c := range tc.cols {
					out[j] = full[c]
				}
				return out
			}
			rng := newDeployRNG(tr.Seed)
			for w := 0; w < windows; w++ {
				window := bases[w*k : (w+1)*k]
				want := gather(cs.Snapshot(telemetry.Aggregate(window), true, rng))
				if !bitsEqual(p.agg[w], want) {
					t.Fatalf("window %d aggregate = %v, want %v", w, p.agg[w], want)
				}
				if tc.reads&ReadsPerInterval == 0 && len(p.per[w]) != 0 {
					t.Fatalf("window %d: a point model got %d per-interval vectors", w, len(p.per[w]))
				}
				for i, b := range window {
					want := gather(cs.Snapshot(b, true, rng))
					if tc.reads&ReadsPerInterval != 0 && !bitsEqual(p.per[w][i], want) {
						t.Fatalf("window %d interval %d = %v, want %v", w, i, p.per[w][i], want)
					}
				}
			}
			wantTaken := int64(windows * tc.perWindowSnap)
			wantDrew := int64(0)
			if tc.draws {
				wantDrew = wantTaken
			}
			if n := snapshots.Value() - taken; n != wantTaken {
				t.Errorf("telemetry.snapshots grew by %d, want %d", n, wantTaken)
			}
			if n := noisy.Value() - drew; n != wantDrew {
				t.Errorf("telemetry.snapshots.noisy grew by %d, want %d", n, wantDrew)
			}
		})
	}
}

// bitsEqual reports whether two vectors hold the same float64 bits.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
