package dataset

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/uarch"
)

// referenceLoop is the reference span as deployments summed it before the
// prefixes were memoised: the first n high-performance intervals added
// one at a time to a zero span.
func referenceLoop(tt *TraceTelemetry, pm *power.Model, n int) power.Span {
	var s power.Span
	var ev uarch.Events
	for i := 0; i < n && i < len(tt.HighPerf); i++ {
		telemetry.BaseToEvents(tt.HighPerf[i].Base, &ev)
		s.Add(pm, &ev, uarch.ModeHighPerf)
	}
	return s
}

// TestHighPerfSpanMatchesLoop is the reference span's differential test:
// for every n from 0 past the recording's end, HighPerfSpan equals the
// loop bit for bit, under the default power model and a perturbed copy,
// and a model changed after its first use gets prefixes of its own.
func TestHighPerfSpanMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tt := &TraceTelemetry{}
	for i := 0; i < 64; i++ {
		b := make([]float64, telemetry.NumBase)
		for j := range b {
			b[j] = float64(rng.Intn(1 << 24))
		}
		tt.HighPerf = append(tt.HighPerf, IntervalRecord{Base: b})
	}
	check := func(name string, pm *power.Model) {
		t.Helper()
		for n := 0; n <= len(tt.HighPerf)+1; n++ {
			got, want := tt.HighPerfSpan(pm, n), referenceLoop(tt, pm, n)
			if math.Float64bits(got.Energy) != math.Float64bits(want.Energy) || got.Cycles != want.Cycles || got.Instrs != want.Instrs {
				t.Fatalf("%s model, n=%d: span %+v, loop %+v", name, n, got, want)
			}
		}
	}
	pm := power.DefaultModel()
	perturbed := *pm
	perturbed.SharedStatic *= 1.1
	perturbed.PerL2Access += 0.037
	perturbed.PerISide /= 3
	check("default", pm)
	check("perturbed", &perturbed)
	pm.PerUop *= 2
	check("changed default", pm)
	if n := len(tt.highPerfSpans.byModel); n != 3 {
		t.Errorf("%d power models memoised, want 3", n)
	}

	nan := *pm
	nan.PerFPOp = math.NaN()
	if got := tt.HighPerfSpan(&nan, 5); !math.IsNaN(got.Energy) || got.Cycles != referenceLoop(tt, &nan, 5).Cycles {
		t.Errorf("NaN model: span %+v", got)
	}
	if n := len(tt.highPerfSpans.byModel); n != 3 {
		t.Errorf("a NaN model, which equals nothing, was memoised: %d models", n)
	}
}

// TestHighPerfSpanConcurrent: concurrent first uses of a recording's
// reference agree, for the race detector.
func TestHighPerfSpanConcurrent(t *testing.T) {
	tt := &TraceTelemetry{}
	for i := 0; i < 16; i++ {
		b := make([]float64, telemetry.NumBase)
		for j := range b {
			b[j] = float64(i*100 + j)
		}
		tt.HighPerf = append(tt.HighPerf, IntervalRecord{Base: b})
	}
	pm := power.DefaultModel()
	want := referenceLoop(tt, pm, 9)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := tt.HighPerfSpan(pm, 9); got != want {
				t.Errorf("span %+v, want %+v", got, want)
			}
		}()
	}
	wg.Wait()
}
