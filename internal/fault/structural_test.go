package fault

import (
	"bytes"
	"reflect"
	"testing"
)

// outagePlan schedules a correlated outage over intervals [5, 25) on ~half
// the corpus's traces.
func outagePlan() Plan {
	return Plan{Seed: 42, Rules: []Rule{
		{Class: TraceOutage, Rate: 0.5, Start: 5, Burst: 20},
	}}
}

func TestTraceOutageCorrelatedWindow(t *testing.T) {
	inj, err := NewInjector(outagePlan())
	if err != nil {
		t.Fatal(err)
	}
	base := []float64{1, 2, 3}
	affected, clean := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		ti := inj.ForTrace(seed, 1)
		_, _, droppedIn := ti.Telemetry(10, base, nil)
		_, faultedBefore, _ := ti.Telemetry(4, base, nil)
		_, faultedAfter, _ := ti.Telemetry(25, base, nil)
		if faultedBefore || faultedAfter {
			t.Fatalf("seed %d: outage leaked outside [5,25)", seed)
		}
		if droppedIn {
			affected++
			// Every member trace must be dark over the whole shared window.
			for idx := 5; idx < 25; idx++ {
				out, faulted, dropped := ti.Telemetry(idx, base, nil)
				if !faulted || !dropped {
					t.Fatalf("seed %d: member not dark at %d", seed, idx)
				}
				for _, v := range out {
					if v != 0 {
						t.Fatalf("seed %d: outage telemetry not blanked", seed)
					}
				}
			}
		} else {
			clean++
		}
	}
	if affected == 0 || clean == 0 {
		t.Fatalf("membership not split: %d affected, %d clean (want both > 0 at rate 0.5)",
			affected, clean)
	}
}

func TestTraceOutageMembershipDeterministic(t *testing.T) {
	inj, err := NewInjector(outagePlan())
	if err != nil {
		t.Fatal(err)
	}
	base := []float64{1}
	for seed := int64(0); seed < 50; seed++ {
		a := inj.ForTrace(seed, 1)
		b := inj.ForTrace(seed, 1)
		_, _, da := a.Telemetry(10, base, nil)
		_, _, db := b.Telemetry(10, base, nil)
		if da != db {
			t.Fatalf("seed %d: membership differs between views", seed)
		}
	}
	// A different plan seed re-draws membership.
	p := outagePlan()
	p.Seed = 43
	inj2, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for seed := int64(0); seed < 200; seed++ {
		_, _, d1 := inj.ForTrace(seed, 1).Telemetry(10, base, nil)
		_, _, d2 := inj2.ForTrace(seed, 1).Telemetry(10, base, nil)
		if d1 != d2 {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("outage membership identical across plan seeds")
	}
}

func TestMemDerateScheduleDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, Rules: []Rule{
		{Class: DRAMDerate, Rate: 0.05, Burst: 10, Factor: 6},
	}}
	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	fwd := make([]float64, n)
	ti := inj.ForTrace(11, 1)
	for i := 0; i < n; i++ {
		fwd[i] = ti.MemDerate(i)
	}
	// Reverse query order must yield the identical schedule (stateless hash).
	rev := make([]float64, n)
	ti2 := inj.ForTrace(11, 1)
	for i := n - 1; i >= 0; i-- {
		rev[i] = ti2.MemDerate(i)
	}
	if !reflect.DeepEqual(fwd, rev) {
		t.Fatal("derate schedule depends on query order")
	}
	active := 0
	for _, f := range fwd {
		switch f {
		case 1:
		case 6:
			active++
		default:
			t.Fatalf("unexpected derate factor %v", f)
		}
	}
	if active == 0 {
		t.Fatal("no derate windows scheduled at rate 0.05 over 500 intervals")
	}
}

func TestMemDerateDefaultFactorAndNil(t *testing.T) {
	plan := Plan{Seed: 7, Rules: []Rule{{Class: DRAMDerate, Rate: 1}}}
	inj, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.ForTrace(1, 1).MemDerate(0); got != 4 {
		t.Fatalf("zero Factor: got %v, want default 4", got)
	}
	var nilTI *TraceInjector
	if got := nilTI.MemDerate(0); got != 1 {
		t.Fatalf("nil injector: got %v, want 1", got)
	}
}

func TestFlipBitsDeterministicDistinct(t *testing.T) {
	orig := make([]byte, 64)
	for i := range orig {
		orig[i] = byte(i * 7)
	}
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	pa := FlipBits(a, 99, 16)
	pb := FlipBits(b, 99, 16)
	if !reflect.DeepEqual(pa, pb) || !bytes.Equal(a, b) {
		t.Fatal("FlipBits not deterministic for a fixed seed")
	}
	if len(pa) != 16 {
		t.Fatalf("got %d positions, want 16", len(pa))
	}
	for i := 1; i < len(pa); i++ {
		if pa[i] <= pa[i-1] {
			t.Fatalf("positions not strictly ascending: %v", pa)
		}
	}
	// Flipping the same positions again restores the original.
	FlipBits(a, 99, 16)
	if !bytes.Equal(a, orig) {
		t.Fatal("double flip did not restore the original bytes")
	}
}

func TestFlipBitsClamped(t *testing.T) {
	data := []byte{0xFF}
	pos := FlipBits(data, 1, 100)
	if len(pos) != 8 {
		t.Fatalf("got %d flips, want clamp to 8", len(pos))
	}
	if data[0] != 0 {
		t.Fatalf("all 8 bits flipped should zero the byte, got %#x", data[0])
	}
	if got := FlipBits(nil, 1, 3); got != nil {
		t.Fatalf("empty data: got %v, want nil", got)
	}
}

func TestStructuralValidation(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Class: TraceOutage, Rate: 0.5, Start: -1}}},
		{Rules: []Rule{{Class: DRAMDerate, Rate: 0.5, Factor: 0.5}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: invalid plan passed validation", i)
		}
	}
	ok := Plan{Rules: []Rule{
		{Class: TraceOutage, Rate: 0.5, Start: 3, Burst: 4},
		{Class: DRAMDerate, Rate: 0.5, Factor: 8},
		{Class: DRAMDerate, Rate: 0.5}, // zero Factor selects the default
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid structural plan rejected: %v", err)
	}
}
