package fault

import (
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"
)

func testPlan() Plan {
	return Plan{
		Seed: 42,
		Rules: []Rule{
			{Class: TelemetryDrop, Rate: 0.05, Burst: 4},
			{Class: CounterGlitch, Rate: 0.03, Burst: 2, Factor: 500},
			{Class: PredictionPin, Rate: 0.05, Burst: 3, Pin: 1},
			{Class: TaskFail, Rate: 0.2},
		},
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := testPlan()
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != p.Seed || len(got.Rules) != len(p.Rules) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
	for i := range p.Rules {
		if got.Rules[i] != p.Rules[i] {
			t.Errorf("rule %d: %+v vs %+v", i, got.Rules[i], p.Rules[i])
		}
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Class: "bogus", Rate: 0.1}}},
		{Rules: []Rule{{Class: TelemetryDrop, Rate: 1.5}}},
		{Rules: []Rule{{Class: TelemetryDrop, Rate: -0.1}}},
		{Rules: []Rule{{Class: TelemetryDrop, Rate: 0.1, Burst: -1}}},
		{Rules: []Rule{{Class: PredictionPin, Rate: 0.1, Pin: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d: invalid plan validated", i)
		}
	}
	if _, err := ParsePlan([]byte("{nope")); err == nil {
		t.Error("malformed JSON parsed")
	}
	if err := testPlan().Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestScheduleDeterminism is the package contract: injection decisions
// depend only on (plan seed, trace seed, index), not on query order or on
// how many other queries happened in between.
func TestScheduleDeterminism(t *testing.T) {
	inj, err := NewInjector(testPlan())
	if err != nil {
		t.Fatal(err)
	}
	base := []float64{1, 2, 3}
	prev := []float64{4, 5, 6}

	type obs struct {
		faulted, dropped bool
		v0               float64
	}
	record := func(order []int) map[int]obs {
		ti := inj.ForTrace(7)
		out := map[int]obs{}
		for _, idx := range order {
			v, f, d := ti.Telemetry(idx, base, prev)
			out[idx] = obs{faulted: f, dropped: d, v0: v[0]}
		}
		return out
	}
	fwd := make([]int, 300)
	rev := make([]int, 300)
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(rev) - 1 - i
	}
	a, b := record(fwd), record(rev)
	nFaulted := 0
	for idx := range a {
		if a[idx] != b[idx] {
			t.Fatalf("interval %d: schedule depends on query order: %+v vs %+v", idx, a[idx], b[idx])
		}
		if a[idx].faulted {
			nFaulted++
		}
	}
	if nFaulted == 0 {
		t.Fatal("no telemetry faults injected over 300 intervals at rate 0.05")
	}

	// Different trace seeds must decorrelate schedules.
	other := inj.ForTrace(8)
	same := true
	for idx := 0; idx < 300; idx++ {
		_, f1, _ := inj.ForTrace(7).Telemetry(idx, base, prev)
		_, f2, _ := other.Telemetry(idx, base, prev)
		if f1 != f2 {
			same = false
			break
		}
	}
	if same {
		t.Error("schedules identical across different trace seeds")
	}
}

func TestBurstCoversConsecutiveIndices(t *testing.T) {
	p := Plan{Seed: 3, Rules: []Rule{{Class: TelemetryDrop, Rate: 0.02, Burst: 5}}}
	inj, err := NewInjector(p)
	if err != nil {
		t.Fatal(err)
	}
	ti := inj.ForTrace(1)
	base := []float64{1}
	// Find a burst start: an index whose predecessor is clean.
	start := -1
	prevFaulted := false
	for idx := 0; idx < 2000; idx++ {
		_, f, _ := ti.Telemetry(idx, base, nil)
		if f && !prevFaulted && idx > 0 {
			start = idx
			break
		}
		prevFaulted = f
	}
	if start < 0 {
		t.Fatal("no burst found in 2000 intervals")
	}
	for idx := start; idx < start+5; idx++ {
		if _, f, _ := ti.Telemetry(idx, base, nil); !f {
			t.Fatalf("interval %d inside burst starting at %d not faulted", idx, start)
		}
	}
}

func TestTelemetryClasses(t *testing.T) {
	base := []float64{10, 20, 30, 40}
	prev := []float64{1, 2, 3, 4}

	find := func(p Plan) (v []float64, dropped bool) {
		inj, err := NewInjector(p)
		if err != nil {
			t.Fatal(err)
		}
		ti := inj.ForTrace(9)
		for idx := 0; idx < 5000; idx++ {
			if out, f, d := ti.Telemetry(idx, base, prev); f {
				if ti.Injected() == 0 {
					t.Error("faulted but Injected() == 0")
				}
				return out, d
			}
		}
		t.Fatal("no fault found in 5000 intervals")
		return nil, false
	}

	drop, dropped := find(Plan{Rules: []Rule{{Class: TelemetryDrop, Rate: 0.01}}})
	if !dropped {
		t.Error("drop not reported as dropped")
	}
	for i, v := range drop {
		if v != 0 {
			t.Errorf("dropped interval signal %d = %v, want 0", i, v)
		}
	}

	// Freeze latches the last *unfaulted* read and re-reads it for the
	// whole burst: feed a changing vector and assert every frozen interval
	// returns the value from just before its burst began.
	frzInj, err := NewInjector(Plan{Rules: []Rule{{Class: CounterFreeze, Rate: 0.01, Burst: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	fti := frzInj.ForTrace(9)
	var lastGood []float64
	frozenSeen := 0
	for idx := 0; idx < 5000 && frozenSeen < 10; idx++ {
		cur := []float64{float64(idx + 1), float64(2 * (idx + 1))}
		out, f, _ := fti.Telemetry(idx, cur, prev)
		if !f {
			lastGood = cur
			continue
		}
		frozenSeen++
		want := lastGood
		if want == nil {
			want = prev // burst from the very first interval
		}
		for i, v := range out {
			if v != want[i] {
				t.Fatalf("interval %d: frozen signal %d = %v, want latched %v", idx, i, v, want[i])
			}
		}
	}
	if frozenSeen == 0 {
		t.Fatal("no frozen interval found in 5000 intervals")
	}

	glitched, _ := find(Plan{Rules: []Rule{{Class: CounterGlitch, Rate: 0.01, Factor: 100}}})
	scaled, unscaled := 0, 0
	for i, v := range glitched {
		switch v {
		case base[i]:
			unscaled++
		case base[i] * 100:
			scaled++
		default:
			t.Errorf("glitched signal %d = %v, want %v or %v", i, v, base[i], base[i]*100)
		}
	}
	if scaled == 0 {
		t.Error("glitch scaled no signals")
	}
}

func TestPredictionClasses(t *testing.T) {
	pinInj, err := NewInjector(Plan{Rules: []Rule{{Class: PredictionPin, Rate: 0.05, Pin: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	ti := pinInj.ForTrace(5)
	hit := false
	for w := 0; w < 1000; w++ {
		if p, f := ti.Prediction(w, 0, 0); f {
			hit = true
			if p != 1 {
				t.Fatalf("pinned prediction = %d, want 1", p)
			}
		}
	}
	if !hit {
		t.Fatal("no pin fault in 1000 windows")
	}

	staleInj, err := NewInjector(Plan{Rules: []Rule{{Class: PredictionStale, Rate: 0.05}}})
	if err != nil {
		t.Fatal(err)
	}
	ti = staleInj.ForTrace(5)
	hit = false
	for w := 0; w < 1000; w++ {
		if p, f := ti.Prediction(w, 0, 1); f {
			hit = true
			if p != 1 {
				t.Fatalf("stale prediction = %d, want previous (1)", p)
			}
		}
	}
	if !hit {
		t.Fatal("no stale fault in 1000 windows")
	}
}

func TestFailTaskTransient(t *testing.T) {
	inj, err := NewInjector(Plan{Rules: []Rule{{Class: TaskFail, Rate: 0.3}}})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i := 0; i < 100; i++ {
		if err := inj.FailTask(i, 0); err != nil {
			failed++
			// The retry must always succeed: the fault is transient.
			if err := inj.FailTask(i, 1); err != nil {
				t.Fatalf("task %d failed on retry: %v", i, err)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no task failures at rate 0.3 over 100 tasks")
	}
}

func TestNilInjectorIsTransparent(t *testing.T) {
	var inj *Injector
	if err := inj.FailTask(1, 0); err != nil {
		t.Error("nil injector failed a task")
	}
	ti := inj.ForTrace(1)
	if ti != nil {
		t.Fatal("nil injector returned non-nil trace view")
	}
	base := []float64{1, 2}
	out, f, d := ti.Telemetry(0, base, nil)
	if f || d || &out[0] != &base[0] {
		t.Error("nil trace injector altered telemetry")
	}
	if p, f := ti.Prediction(0, 1, 0); f || p != 1 {
		t.Error("nil trace injector altered prediction")
	}
	if ti.Injected() != 0 {
		t.Error("nil trace injector counted injections")
	}
}

// FuzzParsePlan feeds arbitrary bytes to the plan parser. A plan it
// accepts must compile, and the compiled plan's per-trace view must draw
// DRAM derates, telemetry faults and prediction faults over a few
// intervals of arbitrary telemetry, as a deployment does, without
// panicking: derates stay at or above nominal, observed vectors keep the
// true vector's length, and predictions stay 0 or 1. The committed seeds
// (testdata/fuzz/FuzzParsePlan) are plans over every class, a derate-only
// plan, an invalid plan and non-JSON bytes.
func FuzzParsePlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, traceSeed int64, raw []byte) {
		p, err := ParsePlan(data)
		if err != nil {
			return
		}
		inj, err := NewInjector(p)
		if err != nil {
			t.Fatalf("ParsePlan accepted a plan NewInjector rejects: %v", err)
		}
		ti := inj.ForTrace(traceSeed)
		// Four base vectors of one length, from raw as little-endian
		// float64 bit patterns (NaN and infinities included).
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		n := len(vals) / 4
		var prev []float64
		pred := 0
		for idx := 0; idx < 12; idx++ {
			if d := ti.MemDerate(idx); !(d >= 1) {
				t.Fatalf("interval %d: derate %v below nominal", idx, d)
			}
			base := vals[idx%4*n : (idx%4+1)*n]
			if out, _, _ := ti.Telemetry(idx, base, prev); len(out) != len(base) {
				t.Fatalf("interval %d: observed %d signals of %d", idx, len(out), len(base))
			}
			prev = base
			if pred, _ = ti.Prediction(idx, idx%2, pred); pred != 0 && pred != 1 {
				t.Fatalf("window %d: prediction %d", idx, pred)
			}
			_ = inj.FailTask(idx, 0)
		}
	})
}
