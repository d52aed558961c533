package telemetry

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clustergate/internal/uarch"
)

// TestSnapshotLinearityProperty: non-noisy derived counters are linear in
// their base signals, so scaling the base vector scales those counters.
func TestSnapshotLinearityProperty(t *testing.T) {
	cs := NewStandardCounterSet()
	f := func(seed int64, scale8 uint8) bool {
		scale := 1 + float64(scale8%7)
		rng := rand.New(rand.NewSource(seed))
		base := make([]float64, NumBase)
		for i := range base {
			base[i] = rng.Float64() * 1000
		}
		scaled := make([]float64, NumBase)
		for i := range scaled {
			scaled[i] = base[i] * scale
		}
		// Use identical noise streams so noisy counters cancel out of the
		// comparison below via the tolerance on relative error.
		a := cs.Snapshot(base, false, rand.New(rand.NewSource(99)))
		b := cs.Snapshot(scaled, false, rand.New(rand.NewSource(99)))
		for i := 0; i < NumBase; i++ { // base counters are exactly linear
			if a[i]*scale != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotNonNegativeOnCounts: counter values derived from non-negative
// base signals stay finite; sums/combos are non-negative by construction.
func TestSnapshotNonNegativeOnCounts(t *testing.T) {
	cs := NewStandardCounterSet()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]float64, NumBase)
		for i := range base {
			base[i] = float64(rng.Intn(100_000))
		}
		out := cs.Snapshot(base, true, rng)
		for _, v := range out {
			if v != v || v < -1e-9 || v > 1e12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBaseToEventsRoundTrip(t *testing.T) {
	f := func(a, b, c uint32) bool {
		ev := uarch.Events{SwitchCycles: 7} // not a base signal: must read zero
		BaseToEvents([]float64{
			1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
			float64(a), 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29,
			30, 31, 32, 33, 34, 35, 36, 37, 38, float64(b), float64(c),
		}, &ev)
		back := ExtractBase(ev)
		return back[16] == float64(a) && back[NumBase-2] == float64(b) &&
			back[NumBase-1] == float64(c) && back[0] == 1 && back[11] == 12 &&
			ev.SwitchCycles == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
