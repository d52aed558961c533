package fault

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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

// statelessView is the per-trace schedule the cursor replaced, kept as
// the reference it is held to: every query hashes each rule's whole burst
// window afresh (activeAt), in plan order, and a freeze re-reads a copy
// of the last unfaulted vector.
type statelessView struct {
	rules    []Rule
	seed     int64
	outages  [][2]int
	lastGood []float64
	injected int64
}

func newStatelessView(inj *Injector, traceSeed int64) *statelessView {
	return &statelessView{rules: inj.plan.Rules, seed: inj.plan.Seed ^ traceSeed ^ 0x666c74,
		outages: inj.ForTrace(traceSeed).outages}
}

func (v *statelessView) Telemetry(idx int, base, prev []float64) (out []float64, faulted, dropped bool) {
	for _, o := range v.outages {
		if idx >= o[0] && idx < o[1] {
			v.injected++
			return make([]float64, len(base)), true, true
		}
	}
	for ri, r := range v.rules {
		switch r.Class {
		case TelemetryDrop, CounterFreeze, CounterGlitch:
		default:
			continue
		}
		if !activeAt(v.seed, ri, idx, r.Rate, r.Burst) {
			continue
		}
		v.injected++
		switch r.Class {
		case TelemetryDrop:
			return make([]float64, len(base)), true, true
		case CounterFreeze:
			held := v.lastGood
			if held == nil {
				held = prev
			}
			if held == nil {
				return make([]float64, len(base)), true, false
			}
			return append([]float64(nil), held...), true, false
		case CounterGlitch:
			factor := r.Factor
			if factor == 0 {
				factor = 1000
			}
			glitched := make([]float64, len(base))
			for i, x := range base {
				if Hash01(v.seed^0x676c, ri, idx*1031+i) < 0.5 {
					x *= factor
				}
				glitched[i] = x
			}
			return glitched, true, false
		}
	}
	v.lastGood = append(v.lastGood[:0], base...)
	return base, false, false
}

func (v *statelessView) Prediction(w, pred, prev int) (int, bool) {
	for ri, r := range v.rules {
		if r.Class != PredictionPin && r.Class != PredictionStale {
			continue
		}
		if !activeAt(v.seed^0x7072, ri, w, r.Rate, r.Burst) {
			continue
		}
		v.injected++
		if r.Class == PredictionPin {
			return r.Pin, true
		}
		return prev, true
	}
	return pred, false
}

func (v *statelessView) MemDerate(idx int) float64 {
	out := 1.0
	for ri, r := range v.rules {
		if r.Class != DRAMDerate || !activeAt(v.seed^0x6d656d, ri, idx, r.Rate, r.Burst) {
			continue
		}
		v.injected++
		f := r.Factor
		if f == 0 {
			f = 4
		}
		if f > out {
			out = f
		}
	}
	return out
}

// matchStateless queries the view and the stateless reference at index
// idx as a deployment does — the derate, the telemetry of base after prev,
// the prediction for window idx — and reports the first difference in a
// derate, an observed signal's bits, a faulted or dropped flag, a
// prediction or the injection count. It returns whether the telemetry was
// faulted.
func matchStateless(ti *TraceInjector, ref *statelessView, idx int, base, prev []float64, pred, prevPred int) (faulted bool, diff string) {
	if got, want := ti.MemDerate(idx), ref.MemDerate(idx); math.Float64bits(got) != math.Float64bits(want) {
		return false, fmt.Sprintf("derate %v, want %v", got, want)
	}
	out, f, d := ti.Telemetry(idx, base, prev)
	wout, wf, wd := ref.Telemetry(idx, base, prev)
	if f != wf || d != wd || len(out) != len(wout) {
		return f, fmt.Sprintf("telemetry faulted/dropped/len %v/%v/%d, want %v/%v/%d", f, d, len(out), wf, wd, len(wout))
	}
	for i := range out {
		if math.Float64bits(out[i]) != math.Float64bits(wout[i]) {
			return f, fmt.Sprintf("observed signal %d = %v, want %v", i, out[i], wout[i])
		}
	}
	p, pf := ti.Prediction(idx, pred, prevPred)
	if wp, wpf := ref.Prediction(idx, pred, prevPred); p != wp || pf != wpf {
		return f, fmt.Sprintf("prediction %d/%v, want %d/%v", p, pf, wp, wpf)
	}
	if ti.Injected() != ref.injected {
		return f, fmt.Sprintf("%d injections, want %d", ti.Injected(), ref.injected)
	}
	return f, ""
}

// TestScheduleCursorMatchesStateless holds the per-trace view's schedule
// cursors to the stateless reference over random plans of every
// deployment-facing class, with rates from 0 to 1 and bursts from 1 to
// math.MaxInt, under query sequences that step forward, skip ahead, repeat
// an index and jump back. Every answer and the injection count must match
// at every query.
func TestScheduleCursorMatchesStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	classes := []Class{TelemetryDrop, CounterFreeze, CounterGlitch, PredictionPin, PredictionStale, DRAMDerate, TraceOutage, TaskFail}
	rates := []float64{0, 0.02, 0.1, 0.3, 0.7, 1}
	bursts := []int{0, 1, 2, 3, 6, 17, math.MaxInt}
	factors := []float64{0, 1, 2.5, 50}
	var faulted, backward, backwardFaulted int
	for p := 0; p < 300; p++ {
		plan := Plan{Seed: rng.Int63() - rng.Int63()}
		for r := 1 + rng.Intn(5); r > 0; r-- {
			plan.Rules = append(plan.Rules, Rule{
				Class: classes[rng.Intn(len(classes))], Rate: rates[rng.Intn(len(rates))],
				Burst: bursts[rng.Intn(len(bursts))], Factor: factors[rng.Intn(len(factors))],
				Pin: rng.Intn(2), Start: rng.Intn(40),
			})
		}
		inj, err := NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		traceSeed := rng.Int63()
		ti, ref := inj.ForTrace(traceSeed), newStatelessView(inj, traceSeed)
		var prev []float64
		idx, pred := 0, 0
		for q := 0; q < 200; q++ {
			back := false
			switch d := rng.Intn(10); {
			case d < 5:
				idx++
			case d < 7:
				idx += 2 + rng.Intn(8)
			case d < 8: // repeat
			default:
				idx, back = max(0, idx-1-rng.Intn(12)), true
			}
			base := []float64{float64(q + 1), float64(2*q + 1), -float64(q)}
			f, diff := matchStateless(ti, ref, idx, base, prev, q%2, pred)
			if diff != "" {
				t.Fatalf("plan %d %+v, query %d (index %d): %s", p, plan, q, idx, diff)
			}
			pred = q % 2
			prev = base
			if f {
				faulted++
			}
			if back {
				backward++
				if f {
					backwardFaulted++
				}
			}
		}
	}
	if faulted == 0 || backward == 0 || backwardFaulted == 0 {
		t.Errorf("%d faulted queries, %d backward and %d faulted backward ones: the plans must exercise all three",
			faulted, backward, backwardFaulted)
	}
}

// FuzzParsePlan feeds arbitrary bytes to the plan parser. A plan it
// accepts must compile, and the compiled plan's per-trace view must draw
// DRAM derates, telemetry faults and prediction faults over a few
// intervals of arbitrary telemetry, as a deployment does, without
// panicking: derates stay at or above nominal, observed vectors keep the
// true vector's length, and predictions stay 0 or 1. A second view of the
// plan, queried over the same intervals and then once backwards, must
// answer bit for bit as the stateless reference does, injection count
// included. The committed seeds (testdata/fuzz/FuzzParsePlan) are plans
// over every class, a derate-only plan, drop and derate rules at the
// largest burst, an invalid plan and non-JSON bytes.
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
		baseAt := func(idx int) []float64 { return vals[idx%4*n : (idx%4+1)*n] }
		var prev []float64
		pred := 0
		for idx := 0; idx < 12; idx++ {
			if d := ti.MemDerate(idx); !(d >= 1) {
				t.Fatalf("interval %d: derate %v below nominal", idx, d)
			}
			base := baseAt(idx)
			if out, _, _ := ti.Telemetry(idx, base, prev); len(out) != len(base) {
				t.Fatalf("interval %d: observed %d signals of %d", idx, len(out), len(base))
			}
			prev = base
			if pred, _ = ti.Prediction(idx, idx%2, pred); pred != 0 && pred != 1 {
				t.Fatalf("window %d: prediction %d", idx, pred)
			}
			_ = inj.FailTask(idx, 0)
		}

		cur, ref := inj.ForTrace(traceSeed), newStatelessView(inj, traceSeed)
		prev, pred = nil, 0
		back := int(uint64(traceSeed) % 12)
		for q, idx := range append([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, back) {
			base := baseAt(idx)
			if _, diff := matchStateless(cur, ref, idx, base, prev, idx%2, pred); diff != "" {
				t.Fatalf("query %d (interval %d): %s", q, idx, diff)
			}
			prev, pred = base, idx%2
		}
	})
}
