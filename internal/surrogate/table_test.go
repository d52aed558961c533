package surrogate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/ml"
	"clustergate/internal/ml/forest"
	"clustergate/internal/ml/linear"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/uarch"
)

// testBackendsCache holds one forest and one ridge residual fitted on the
// test corpus's forced-schedule samples, once per test binary.
var testBackendsCache struct {
	rf    *forest.RegForest
	ridge *linear.Ridge
}

// testBackends returns a forest-backed and a ridge-backed model over the
// test corpus, each a fresh Model and so with empty residual tables.
func testBackends(t *testing.T) []*Model {
	t.Helper()
	c, tel, cfg := testCorpus(t)
	if testBackendsCache.rf == nil {
		opt := TrainOptions{Seed: 7}
		opt.defaults()
		d := &ml.RegDataset{}
		for i, tr := range c.Traces {
			ss, err := traceSamples(tr, tel[i], cfg, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range ss {
				d.X = append(d.X, s.f)
				d.Y = append(d.Y, s.y)
			}
		}
		rf, err := forest.TrainReg(opt.Forest, d)
		if err != nil {
			t.Fatal(err)
		}
		ridge, err := linear.TrainRidge(linear.RidgeConfig{}, d)
		if err != nil {
			t.Fatal(err)
		}
		testBackendsCache.rf, testBackendsCache.ridge = rf, ridge
	}
	fp := Fingerprint(cfg)
	return []*Model{
		{FeatureVersion: FeatureVersion, Fingerprint: fp, Backend: "forest", Forest: testBackendsCache.rf},
		{FeatureVersion: FeatureVersion, Fingerprint: fp, Backend: "ridge", Ridge: testBackendsCache.ridge},
	}
}

// hashScorer scores a pseudo-random value of the first feature, so each
// seed drives the controller through its own mode schedule.
type hashScorer struct{ seed uint64 }

func (h hashScorer) Score(x []float64) float64 { return hash01(h.seed, math.Float64bits(x[0])) }

// tableJob is one deployment of the table differential test.
type tableJob struct {
	g     *core.GatingController
	trace int
	opts  core.DeployOptions
}

// tableJobs deploys three random-schedule controllers and an oscillating
// one on every test trace, with and without the guardrail, under no
// faults and under plans that mix telemetry drops and glitches with DRAM
// derate windows at random factors, so recordings are revisited under
// many (mode, derate, since-switch) combinations.
func tableJobs(t *testing.T, n int, cfg dataset.Config) []tableJob {
	t.Helper()
	ctls := []*core.GatingController{testController(t, cfg, waveScorer{})}
	for s := uint64(1); s <= 3; s++ {
		ctls = append(ctls, testController(t, cfg, hashScorer{seed: s}))
	}
	rng := rand.New(rand.NewSource(23))
	plans := []fault.Plan{{}}
	for p := 0; p < 3; p++ {
		plans = append(plans, fault.Plan{Seed: int64(31 + p), Rules: []fault.Rule{
			{Class: fault.TelemetryDrop, Rate: 0.08, Burst: 2},
			{Class: fault.CounterGlitch, Rate: 0.08, Burst: 2},
			{Class: fault.DRAMDerate, Rate: 0.2, Burst: 3, Factor: 1 + 5*rng.Float64()},
			{Class: fault.DRAMDerate, Rate: 0.1, Burst: 2, Factor: float64(2 + p)},
		}})
	}
	gr := core.DefaultGuardrail()
	var jobs []tableJob
	for _, plan := range plans {
		var inj *fault.Injector
		if len(plan.Rules) > 0 {
			var err error
			if inj, err = fault.NewInjector(plan); err != nil {
				t.Fatal(err)
			}
		}
		for _, guard := range []*core.Guardrail{nil, &gr} {
			for _, g := range ctls {
				for i := 0; i < n; i++ {
					jobs = append(jobs, tableJob{g: g, trace: i, opts: core.DeployOptions{Guardrail: guard, Injector: inj}})
				}
			}
		}
	}
	return jobs
}

// keyRecorder is a deployment's interval source with no residual table:
// it evaluates every interval's residual, and collects the residual keys
// its intervals need from its own switch clock, independently of the
// table's key.
type keyRecorder struct {
	src     *traceModel
	trace   int
	clock   switchClock
	keys    map[[5]uint64]bool
	lookups int
}

func (k *keyRecorder) NextInterval(gidx int, mode uarch.Mode, derate float64) *core.StoredInterval {
	iv := k.src.NextInterval(gidx, mode, derate)
	if iv != nil {
		since := k.clock.next(mode)
		if since > sinceSwitchCap {
			since = sinceSwitchCap
		}
		low := uint64(0)
		if mode == uarch.ModeLowPower {
			low = 1
		}
		k.keys[[5]uint64{uint64(k.trace), uint64(gidx), low, uint64(since), math.Float64bits(derate)}] = true
		k.lookups++
	}
	return iv
}

// TestResidualTableMatchesDirect is the residual table's differential
// test: for both backends, deployments whose recordings share one model's
// tables are DeepEqual to the same deployments evaluating every residual
// afresh, at 1 and at 4 workers. The table evaluates each distinct key
// exactly once, so surrogate.residual.evals equals the number of distinct
// keys, and both counters read the same at either worker count.
func TestResidualTableMatchesDirect(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	pm := power.DefaultModel()
	jobs := tableJobs(t, len(c.Traces), cfg)
	for b, fresh := range testBackends(t) {
		// Reference: no table, every residual evaluated where it is needed.
		keys := map[[5]uint64]bool{}
		lookups := 0
		want := make([]*core.GuardedDeploymentResult, len(jobs))
		for j, job := range jobs {
			i := job.trace
			rec := &keyRecorder{trace: i, clock: newSwitchClock(), keys: keys,
				src: &traceModel{m: fresh, ref: tel[i], core: cfg.Core, clock: newSwitchClock()}}
			res, err := core.DeployFrom(job.g, c.Traces[i], tel[i], pm, job.opts, func() core.IntervalSource { return rec })
			if err != nil {
				t.Fatal(err)
			}
			want[j] = res
			lookups += rec.lookups
		}
		if fresh.tables != nil {
			t.Fatal("reference deployments built a residual table")
		}

		var counts [][2]int64
		for _, workers := range []int{1, 4} {
			m := testBackends(t)[b]
			evals, hits := residualEvals.Value(), residualHits.Value()
			got, err := parallel.Map(workers, len(jobs), func(j int) (*core.GuardedDeploymentResult, error) {
				job := jobs[j]
				return m.Replay(job.g, c.Traces[job.trace], tel[job.trace], cfg, pm, job.opts)
			})
			if err != nil {
				t.Fatal(err)
			}
			for j := range jobs {
				if !reflect.DeepEqual(got[j], want[j]) {
					t.Fatalf("%s backend, %d workers, deployment %d (trace %d): table-backed replay differs from direct evaluation:\ntable  %+v\ndirect %+v",
						m.Backend, workers, j, jobs[j].trace, got[j], want[j])
				}
			}
			counts = append(counts, [2]int64{residualEvals.Value() - evals, residualHits.Value() - hits})
			checkTableVerdicts(t, m)
		}
		if counts[0] != counts[1] {
			t.Errorf("%s backend: (evals, hits) %v at 1 worker, %v at 4", fresh.Backend, counts[0], counts[1])
		}
		if n := counts[0][0]; n != int64(len(keys)) {
			t.Errorf("%s backend: %d residual evaluations, want one per distinct key (%d)", fresh.Backend, n, len(keys))
		}
		if n := counts[0][0] + counts[0][1]; n != int64(lookups) {
			t.Errorf("%s backend: %d evaluations + hits, want one per interval (%d)", fresh.Backend, n, lookups)
		}
		if counts[0][1] == 0 {
			t.Errorf("%s backend: no table hits: the deployments never revisit a key", fresh.Backend)
		}
	}
}

// TestResidualTableRandomSchedules drives the interval source directly
// under random mode and DRAM-derate schedules, many per recording, and
// holds every table-backed interval bit for bit to direct evaluation. The
// schedules hold each mode for a random run, so since-switch counts span
// the whole capped range, and draw repeated derates, so later schedules
// revisit (interval, mode) pairs under other derates and switch ages.
func TestResidualTableRandomSchedules(t *testing.T) {
	_, tel, cfg := testCorpus(t)
	derates := []float64{1, 1, 1, 1.5, 2, 4, 6}
	for _, m := range testBackends(t) {
		rng := rand.New(rand.NewSource(41))
		for s := 0; s < 12; s++ {
			for i, ref := range tel {
				table := &traceModel{m: m, ref: ref, core: cfg.Core, clock: newSwitchClock(), table: m.residuals(ref)}
				direct := &traceModel{m: m, ref: ref, core: cfg.Core, clock: newSwitchClock()}
				mode, run := uarch.ModeHighPerf, 0
				for gidx := 0; ; gidx++ {
					if run == 0 {
						mode, run = uarch.Mode(rng.Intn(2)), 1+rng.Intn(12)
					}
					run--
					derate := derates[rng.Intn(len(derates))]
					got := table.NextInterval(gidx, mode, derate)
					want := direct.NextInterval(gidx, mode, derate)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s backend, schedule %d, trace %d, interval %d (mode %d, derate %v): table %v, direct %v",
							m.Backend, s, i, gidx, mode, derate, got, want)
					}
					if got == nil {
						break
					}
				}
			}
		}
	}
}

// TestResidualTableHitAllocatesNothing: an interval the table answers
// through traceModel.NextInterval allocates nothing and is the stored
// interval itself, and a recording's deployments share one table.
func TestResidualTableHitAllocatesNothing(t *testing.T) {
	_, tel, cfg := testCorpus(t)
	m := testBackends(t)[0]
	ref := tel[0]
	tab := m.residuals(ref)
	if tab != m.residuals(ref) {
		t.Fatal("a recording's deployments get different tables")
	}
	src := &traceModel{m: m, ref: ref, core: cfg.Core, clock: newSwitchClock(), table: tab}
	// From the cap on, the since-switch count no longer changes the key.
	var want *core.StoredInterval
	for i := 0; i <= sinceSwitchCap; i++ {
		want = src.NextInterval(2, uarch.ModeLowPower, 4)
	}
	var got *core.StoredInterval
	if a := testing.AllocsPerRun(100, func() { got = src.NextInterval(2, uarch.ModeLowPower, 4) }); a != 0 {
		t.Errorf("a table hit allocates %.1f times", a)
	}
	if got != want {
		t.Error("a hit returned an interval other than the stored one")
	}
}

// TestResidualTableTiedToCore: a recording's table holds vectors spliced
// for the core its first deployment ran on. A replay on another core, one
// with other switch costs, DRAM fill gap and front-end width, neither
// reads nor fills it: it equals direct evaluation on its own core and
// moves neither table counter.
func TestResidualTableTiedToCore(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	m := testBackends(t)[0]
	g := testController(t, cfg, waveScorer{})
	pm := power.DefaultModel()
	inj, err := fault.NewInjector(fault.Plan{Seed: 5, Rules: []fault.Rule{{Class: fault.DRAMDerate, Rate: 0.3, Burst: 2, Factor: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DeployOptions{Injector: inj}
	other := cfg
	other.Core.MemGap *= 2
	other.Core.FetchWidth /= 2
	other.Core.MaxRegTransfers /= 2
	for k, run := range []dataset.Config{cfg, other, cfg} {
		evals, hits := residualEvals.Value(), residualHits.Value()
		got, err := m.Replay(g, c.Traces[0], tel[0], run, pm, opts)
		if err != nil {
			t.Fatal(err)
		}
		moved := residualEvals.Value() != evals || residualHits.Value() != hits
		direct := &traceModel{m: m, ref: tel[0], core: run.Core, clock: newSwitchClock()}
		want, err := core.DeployFrom(g, c.Traces[0], tel[0], pm, opts, func() core.IntervalSource { return direct })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replay %d: table-backed deployment differs from direct evaluation on its core", k)
		}
		if moved != (run == cfg) {
			t.Errorf("replay %d: table counters moved %v, want %v", k, moved, run == cfg)
		}
	}
}

// checkTableVerdicts requires every interval m's residual tables store to
// carry the verdict the full plausibility check gives its vector and the
// activity power accounting takes of the vector's events, and each slot's
// derates to be distinct.
func checkTableVerdicts(t *testing.T, m *Model) {
	t.Helper()
	stored := 0
	m.tablesMu.Lock()
	defer m.tablesMu.Unlock()
	for _, tab := range m.tables {
		tab.mu.Lock()
		for s := range tab.slots {
			list := tab.slots[s].Load()
			if list == nil {
				continue
			}
			seen := map[uint64]bool{}
			for _, e := range *list {
				stored++
				if seen[e.derate] {
					t.Errorf("%s backend, slot %d: derate %v stored twice", m.Backend, s, math.Float64frombits(e.derate))
				}
				seen[e.derate] = true
				iv := e.iv
				if want := telemetry.ImplausibleBase(iv.Base, nil) == ""; iv.Plausible != want {
					t.Errorf("%s backend, slot %d: stored verdict %v, the full check gives %v", m.Backend, s, iv.Plausible, want)
				}
				var ev uarch.Events
				telemetry.BaseToEvents(iv.Base, &ev)
				if want := power.ActivityOf(&ev); iv.Activity != want {
					t.Errorf("%s backend, slot %d: stored activity %+v, its vector's is %+v", m.Backend, s, iv.Activity, want)
				}
			}
		}
		tab.mu.Unlock()
	}
	if stored == 0 {
		t.Errorf("%s backend: the tables store no intervals", m.Backend)
	}
}

// unknownVerdicts hands out its inner source's vectors without their
// plausibility verdicts, so the guardrail checks every interval in full.
type unknownVerdicts struct{ inner core.IntervalSource }

func (s unknownVerdicts) NextInterval(gidx int, mode uarch.Mode, derate float64) *core.StoredInterval {
	iv := s.inner.NextInterval(gidx, mode, derate)
	if iv == nil {
		return nil
	}
	unknown := *iv
	unknown.Plausible = false
	return &unknown
}

// TestStoredVerdictsMatchFullCheck holds the residual tables' stored
// plausibility verdicts to the guardrail's full check: for both backends,
// replays that read the verdicts must be DeepEqual to the same deployments
// over the same tables whose source reports every verdict as unknown,
// under plans that drop, freeze and glitch telemetry and derate DRAM, with
// the guardrail on, and the guardrail must trip on implausible telemetry.
func TestStoredVerdictsMatchFullCheck(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	pm := power.DefaultModel()
	gr := core.DefaultGuardrail()
	var plans []core.DeployOptions
	for p, rules := range [][]fault.Rule{
		{{Class: fault.TelemetryDrop, Rate: 0.1, Burst: 3}},
		{{Class: fault.CounterFreeze, Rate: 0.1, Burst: 3}},
		{{Class: fault.CounterGlitch, Rate: 0.1, Burst: 3}},
		{{Class: fault.DRAMDerate, Rate: 0.2, Burst: 3, Factor: 4}},
	} {
		inj, err := fault.NewInjector(fault.Plan{Seed: int64(51 + p), Rules: rules})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, core.DeployOptions{Guardrail: &gr, Injector: inj})
	}
	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)
	for _, m := range testBackends(t) {
		for s := uint64(1); s <= 2; s++ {
			g := testController(t, cfg, hashScorer{seed: s})
			for _, opts := range plans {
				for i, tr := range c.Traces {
					got, err := m.Replay(g, tr, tel[i], cfg, pm, opts)
					if err != nil {
						t.Fatal(err)
					}
					src := &traceModel{m: m, ref: tel[i], core: cfg.Core, clock: newSwitchClock(), table: m.residuals(tel[i])}
					want, err := core.DeployFrom(g, tr, tel[i], pm, opts, func() core.IntervalSource { return unknownVerdicts{src} })
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s backend on %s: stored verdicts give %+v, the full check %+v", m.Backend, tr.Name, got, want)
					}
				}
			}
		}
		checkTableVerdicts(t, m)
	}
	n := 0
	for _, e := range log.Events() {
		if e.Kind == "guardrail.trip" && e.Attrs["reason"] == "implausible-telemetry" {
			n++
		}
	}
	if n == 0 {
		t.Error("no guardrail trip on implausible telemetry: the plans must exercise the check")
	}
}

// TestDeployAllocatesPerDeployment: with every interval a table hit, a
// surrogate deployment allocates as often on a recording of n windows as
// on one of 2n, bare and under a plan that glitches a third of the
// intervals. The decision loop fills the same window vectors for every
// window and a glitch writes into the deployment's own buffers, so what
// it allocates is per deployment.
func TestDeployAllocatesPerDeployment(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	m := testBackends(t)[0]
	g := testController(t, cfg, waveScorer{})
	pm := power.DefaultModel()
	k := g.Granularity / g.Interval
	full := tel[0]
	n := full.Intervals() / k / 2
	if n < 3 {
		t.Fatalf("recording of %d intervals: too short for two lengths that both decide", full.Intervals())
	}
	glitchy, err := fault.NewInjector(fault.Plan{Seed: 73, Rules: []fault.Rule{
		{Class: fault.CounterGlitch, Rate: 0.15, Burst: 3},
		{Class: fault.DRAMDerate, Rate: 0.1, Burst: 2, Factor: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.DeployOptions{{}, {Injector: glitchy}} {
		allocs := func(windows int) float64 {
			ref := &dataset.TraceTelemetry{App: full.App, Benchmark: full.Benchmark, Workload: full.Workload,
				TraceName: full.TraceName, Seed: full.Seed,
				HighPerf: full.HighPerf[:windows*k], LowPower: full.LowPower[:windows*k]}
			deploy := func() {
				if _, err := m.Replay(g, c.Traces[0], ref, cfg, pm, opts); err != nil {
					t.Fatal(err)
				}
			}
			deploy() // fills the recording's table and its reference span
			return testing.AllocsPerRun(20, deploy)
		}
		if short, long := allocs(n), allocs(2*n); short != long {
			t.Errorf("injector %v: a deployment of %d windows allocates %.0f times, one of %d windows %.0f",
				opts.Injector != nil, n, short, 2*n, long)
		}
	}
}

// readsBoth declares that its predictor reads both window vectors, so the
// deployment computes every vector.
type readsBoth struct{ core.Predictor }

func (readsBoth) Reads() core.Inputs { return core.ReadsBoth }

// hashWindow is a window model: it scores a pseudo-random value of the
// last interval's first counter.
type hashWindow struct{ seed uint64 }

func (h hashWindow) ScoreWindow(per [][]float64) float64 {
	return hash01(h.seed, math.Float64bits(per[len(per)-1][0]))
}

// TestReadOnlyInputsMatchBothRead is the surrogate path's twin of core's
// test of that name: for both backends, every replay of a point model, a
// window model and a controller with one of each must be DeepEqual to the
// same replay with both models declaring both window vectors, over the
// Table-4 columns and a noisy+debug set, bare and under a plan that drops,
// freezes and glitches telemetry, derates DRAM and pins predictions, with
// the guardrail on and off.
func TestReadOnlyInputsMatchBothRead(t *testing.T) {
	c, tel, cfg := testCorpus(t)
	pm := power.DefaultModel()
	inj, err := fault.NewInjector(fault.Plan{Seed: 67, Rules: []fault.Rule{
		{Class: fault.TelemetryDrop, Rate: 0.06, Burst: 2},
		{Class: fault.CounterFreeze, Rate: 0.06, Burst: 2},
		{Class: fault.CounterGlitch, Rate: 0.08, Burst: 3},
		{Class: fault.DRAMDerate, Rate: 0.15, Burst: 3, Factor: 3},
		{Class: fault.PredictionPin, Rate: 0.05, Burst: 2, Pin: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	gr := core.DefaultGuardrail()
	point, window := core.PointPredictor{M: hashScorer{seed: 5}}, core.WindowPredictor{M: hashWindow{seed: 6}}
	var switches, trips int
	for _, m := range testBackends(t) {
		for _, names := range [][]string{telemetry.Table4Names(), {"l2_misses_smp0", "instructions", "debug_042", "stall_count", "instructions"}} {
			for _, preds := range [][2]core.Predictor{{point, point}, {window, window}, {point, window}} {
				g := testController(t, cfg, nil)
				cols, err := core.ColumnsByName(g.Counters, names)
				if err != nil {
					t.Fatal(err)
				}
				g.Columns, g.HighPerf, g.LowPower = cols, preds[0], preds[1]
				both := *g
				both.HighPerf, both.LowPower = readsBoth{g.HighPerf}, readsBoth{g.LowPower}
				for _, opts := range []core.DeployOptions{{}, {Injector: inj}, {Guardrail: &gr, Injector: inj}} {
					for i, tr := range c.Traces {
						got, err := m.Replay(g, tr, tel[i], cfg, pm, opts)
						if err != nil {
							t.Fatal(err)
						}
						want, err := m.Replay(&both, tr, tel[i], cfg, pm, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s backend, %d columns, %T/%T, guardrail %v, injector %v, %s: reading only what the model reads gives %+v, reading both %+v",
								m.Backend, len(cols), preds[0], preds[1], opts.Guardrail != nil, opts.Injector != nil, tr.Name, got, want)
						}
						switches += got.Switches
						trips += got.GuardrailTrips
					}
				}
			}
		}
	}
	if switches == 0 || trips == 0 {
		t.Errorf("%d mode switches and %d guardrail trips: the cases must exercise both", switches, trips)
	}
}
