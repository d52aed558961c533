package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"clustergate/internal/dataset"
	"clustergate/internal/fault"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// telemetryHashPredictor gates on a hash of the observed window, so its
// decisions flip often and follow the telemetry exactly: any difference in
// what the controller observes changes the mode schedule that follows.
type telemetryHashPredictor struct{}

func (telemetryHashPredictor) ScoreWindow(agg []float64, _ [][]float64) float64 {
	s := 0.0
	for i, v := range agg {
		s += float64(i+1) * v
	}
	return math.Mod(math.Abs(s)*1e4, 1)
}

func (telemetryHashPredictor) Reads() Inputs { return ReadsAggregate }

// deploySuite is a small self-contained deployment set-up: a few short
// SPEC traces with their fixed-mode telemetry.
type deploySuite struct {
	cfg    dataset.Config
	traces []*trace.Trace
	tel    []*dataset.TraceTelemetry
	ctrls  []*GatingController
	pm     *power.Model
}

func newDeploySuite(t *testing.T, seed int64) *deploySuite {
	t.Helper()
	return newDeploySuiteOf(t, seed, dataset.DefaultConfig().Interval)
}

// newDeploySuiteOf builds a deployment suite whose recordings and
// controllers step interval instructions at a time.
func newDeploySuiteOf(t *testing.T, seed int64, interval int) *deploySuite {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.Warmup = 20_000
	cfg.Interval = interval
	spec := trace.BuildSPEC(trace.SPECConfig{TracesPerWorkload: 1, InstrsPerTrace: 150_000, Seed: seed})
	s := &deploySuite{cfg: cfg, pm: power.DefaultModel()}
	seen := map[string]bool{}
	for _, tr := range spec.Traces {
		if b := tr.App.Benchmark; !seen[b] && len(s.traces) < 3 {
			seen[b] = true
			s.traces = append(s.traces, tr)
			s.tel = append(s.tel, dataset.SimulateTrace(tr, cfg))
		}
	}
	cs := telemetry.NewStandardCounterSet()
	cols, err := ColumnsByName(cs, telemetry.Table4Names())
	if err != nil {
		t.Fatal(err)
	}
	ctrl := func(name string, p Predictor, granularity int) *GatingController {
		return &GatingController{
			Name: name, HighPerf: p, LowPower: p,
			ThresholdHigh: 0.5, ThresholdLow: 0.5,
			Interval: cfg.Interval, Granularity: granularity,
			Counters: cs, Columns: cols, SLA: dataset.SLA{PSLA: 0.9},
		}
	}
	s.ctrls = []*GatingController{
		ctrl("hash", telemetryHashPredictor{}, cfg.Interval),
		ctrl("hash-20k", telemetryHashPredictor{}, 2*cfg.Interval),
		ctrl("always-gate", scriptedPredictor(1), cfg.Interval),
	}
	return s
}

// step is one interval's (mode, DRAM derate) as the cycle model saw it.
type step struct {
	mode   uarch.Mode
	derate float64
}

// runnerSource is an interval source that steps a cycle-model runner
// through the trace, the reference the deployment trie is held to, and
// records the step of every interval it returns.
type runnerSource struct {
	r     *uarch.Runner
	steps []step
	cps   []uarch.Checkpoint // the runner's checkpoint after each interval
}

// NextInterval executes the next interval in mode under derate.
func (s *runnerSource) NextInterval(_ int, mode uarch.Mode, derate float64) *StoredInterval {
	s.r.SetMode(mode)
	s.r.SetMemDerate(derate)
	delta, n := s.r.Next()
	if n == 0 {
		return nil
	}
	s.steps = append(s.steps, step{mode, derate})
	s.cps = append(s.cps, uarch.Checkpoint(s.r.AppendCheckpoint(nil)))
	iv := NewStoredInterval(telemetry.ExtractBase(delta))
	return &iv
}

// liveDeploy deploys through the same decision loop over a live runner,
// which generates and probes the trace as it goes: the path the tape and
// the deployment trie replace.
func (s *deploySuite) liveDeploy(g *GatingController, i int, opts DeployOptions) (*GuardedDeploymentResult, error) {
	res, _, err := s.liveSchedule(g, i, opts)
	return res, err
}

// liveSchedule deploys live, like liveDeploy, and also returns the
// deployment's source, holding its schedule and the runner's checkpoint
// after each interval.
func (s *deploySuite) liveSchedule(g *GatingController, i int, opts DeployOptions) (*GuardedDeploymentResult, *runnerSource, error) {
	tr := s.traces[i]
	src := &runnerSource{r: uarch.NewRunner(s.cfg.Core, uarch.ModeHighPerf, trace.NewStream(tr), s.cfg.Warmup, g.Interval)}
	res, err := DeployFrom(g, tr, s.tel[i], s.pm, opts, func() IntervalSource { return src })
	return res, src, err
}

// TestDeployTapeMatchesLive is the deployment-level differential test:
// every deployment replayed from the trace's tape must equal, DeepEqual,
// the same deployment executed live — under fault plans that drop and
// glitch telemetry and derate DRAM, with the guardrail on and off, for
// controllers whose mode schedules follow the telemetry.
func TestDeployTapeMatchesLive(t *testing.T) {
	s := newDeploySuite(t, 5)
	plans := []fault.Plan{
		{},
		{Seed: 3, Rules: []fault.Rule{
			{Class: fault.TelemetryDrop, Rate: 0.15, Burst: 3},
			{Class: fault.CounterGlitch, Rate: 0.15, Burst: 3},
			{Class: fault.DRAMDerate, Rate: 0.2, Burst: 4, Factor: 4},
		}},
	}
	gr := DefaultGuardrail()
	var switches, injected, trips int
	for _, guard := range []*Guardrail{nil, &gr} {
		for p, plan := range plans {
			var inj *fault.Injector
			if len(plan.Rules) > 0 {
				var err error
				if inj, err = fault.NewInjector(plan); err != nil {
					t.Fatal(err)
				}
			}
			opts := DeployOptions{Guardrail: guard, Injector: inj}
			for _, g := range s.ctrls {
				for i, tr := range s.traces {
					got, err := DeployWithOptions(g, tr, s.tel[i], s.cfg, s.pm, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := s.liveDeploy(g, i, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("guardrail %v plan %d %s on %s: tape deployment differs from live\ntape: %+v\nlive: %+v",
							guard != nil, p, g.Name, tr.Name, got, want)
					}
					switches += got.Switches
					injected += int(got.InjectedFaults)
					trips += got.GuardrailTrips
				}
			}
		}
	}
	if switches == 0 || injected == 0 || trips == 0 {
		t.Errorf("%d mode switches, %d injected faults, %d guardrail trips: the suite must exercise all three",
			switches, injected, trips)
	}
}

// TestDeployTapeRecordedOnce checks that concurrent first deployments of a
// trace share one recording, and that later deployments replay it.
func TestDeployTapeRecordedOnce(t *testing.T) {
	s := newDeploySuite(t, 9)
	g := s.ctrls[0]
	records := func() int64 { return obs.CounterValue("uarch.tape.records") }
	before := records()
	results := make([]*GuardedDeploymentResult, 6)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := DeployWithOptions(g, s.traces[0], s.tel[0], s.cfg, s.pm, DeployOptions{})
			if err != nil {
				t.Error(err)
			}
			results[w] = r
		}()
	}
	wg.Wait()
	if n := records() - before; n != 1 {
		t.Errorf("%d concurrent first deployments recorded %d tapes, want 1", len(results), n)
	}
	for _, r := range results[1:] {
		if !reflect.DeepEqual(r, results[0]) {
			t.Fatal("concurrent deployments of one trace differ")
		}
	}
	if _, err := DeployWithOptions(g, s.traces[0], s.tel[0], s.cfg, s.pm, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := records() - before; n != 1 {
		t.Errorf("a later deployment recorded again: %d tapes in all", n)
	}
}

// TestDeployTapeFollowsConfig pins the trace's single tape slot: a
// deployment under another warmup records a tape of its own in place of
// the held one, and each deployment still equals its live counterpart.
func TestDeployTapeFollowsConfig(t *testing.T) {
	s := newDeploySuite(t, 11)
	g := s.ctrls[0]
	records := func() int64 { return obs.CounterValue("uarch.tape.records") }
	before := records()
	for k, warmup := range []int{s.cfg.Warmup, 30_000, 30_000, s.cfg.Warmup} {
		cfg := s.cfg
		cfg.Warmup = warmup
		run := &deploySuite{cfg: cfg, traces: s.traces, tel: s.tel, pm: s.pm}
		got, err := DeployWithOptions(g, s.traces[0], s.tel[0], cfg, s.pm, DeployOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := run.liveDeploy(g, 0, DeployOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("deployment %d (warmup %d) differs from live", k, warmup)
		}
	}
	// Recorded for the first warmup, re-recorded for 30k, reused, and
	// re-recorded for the first warmup again.
	if n := records() - before; n != 3 {
		t.Errorf("recorded %d tapes, want 3", n)
	}
}

// keptSource hands out its inner source's vectors and logs each one with
// a copy taken as it is handed out, and, if modes is set, the mode it ran
// in.
type keptSource struct {
	inner     IntervalSource
	out, kept *[][]float64
	modes     *[]uarch.Mode
}

func (s *keptSource) NextInterval(gidx int, mode uarch.Mode, derate float64) *StoredInterval {
	iv := s.inner.NextInterval(gidx, mode, derate)
	if iv != nil {
		*s.out = append(*s.out, iv.Base)
		*s.kept = append(*s.kept, slices.Clone(iv.Base))
		if s.modes != nil {
			*s.modes = append(*s.modes, mode)
		}
	}
	return iv
}

// TestDeployLeavesSourceVectorsUnchanged holds DeployFrom to the
// IntervalSource contract that the vectors a source hands out are
// read-only. The deployments read their trace's deployment trie, whose
// vectors every deployment of the trace shares, twice over, so the second
// round is served from the first round's nodes. They run under a plan
// that drops, freezes and glitches telemetry and derates DRAM, with the
// guardrail on and an event log installed. Afterwards every vector handed
// out must equal, bit for bit, its copy.
func TestDeployLeavesSourceVectorsUnchanged(t *testing.T) {
	s := newDeploySuite(t, 13)
	inj, err := fault.NewInjector(fault.Plan{Seed: 17, Rules: []fault.Rule{
		{Class: fault.TelemetryDrop, Rate: 0.1, Burst: 2},
		{Class: fault.CounterFreeze, Rate: 0.1, Burst: 3},
		{Class: fault.CounterGlitch, Rate: 0.1, Burst: 2},
		{Class: fault.DRAMDerate, Rate: 0.2, Burst: 3, Factor: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)
	gr := DefaultGuardrail()
	opts := DeployOptions{Guardrail: &gr, Injector: inj}

	var out, kept [][]float64
	var injected int64
	trips := 0
	for round := 0; round < 2; round++ {
		for _, g := range s.ctrls {
			k := g.Granularity / g.Interval
			for i, tr := range s.traces {
				trie := deployTape(tr, s.cfg).trie(g.Interval, s.tel[i].Intervals()/k*k).source()
				res, err := DeployFrom(g, tr, s.tel[i], s.pm, opts, func() IntervalSource {
					return &keptSource{inner: trie, out: &out, kept: &kept}
				})
				trie.close()
				if err != nil {
					t.Fatal(err)
				}
				injected += res.InjectedFaults
				trips += res.GuardrailTrips
			}
		}
	}
	if injected == 0 || trips == 0 || log.Len() == 0 {
		t.Fatalf("%d injected faults, %d guardrail trips, %d events: the deployments must exercise all three",
			injected, trips, log.Len())
	}

	// The injector hands out vectors it does not copy either: every drop
	// reads its view's one zero vector, a freeze re-reads a source vector
	// and a glitch writes into the view's ring of buffers. A controller
	// over the 40 base signals sees each observed vector verbatim (per
	// cycle), so, at one and at two intervals a window, it must see what
	// the trace's fault view gives when replayed over copies of the
	// handed-out vectors, one interval at a time: zeros at every drop,
	// however many drops came before, the latched copy at every freeze,
	// and each glitched vector of a window intact when the window is
	// scored. The guardrail, which compares each observed vector with the
	// one before, must trip as often as it does over the replayed vectors.
	// The replay reads only those two, so its view keeps two glitched
	// vectors.
	baseCols, err := ColumnsByName(s.ctrls[0].Counters, telemetry.BaseNames)
	if err != nil {
		t.Fatal(err)
	}
	drops, freezes, glitches := 0, 0, 0
	for _, c := range s.ctrls[:2] {
		k := c.Granularity / c.Interval
		for i, tr := range s.traces {
			p := &recordingPredictor{reads: ReadsBoth}
			g := *c
			g.Name, g.HighPerf, g.LowPower, g.Columns = "base-signals", p, p, baseCols
			from := len(out)
			var modes []uarch.Mode
			trie := deployTape(tr, s.cfg).trie(g.Interval, s.tel[i].Intervals()/k*k).source()
			res, err := DeployFrom(&g, tr, s.tel[i], s.pm, opts, func() IntervalSource {
				return &keptSource{inner: trie, out: &out, kept: &kept, modes: &modes}
			})
			trie.close()
			if err != nil {
				t.Fatal(err)
			}
			proj := g.Counters.Project(baseCols)
			ti := inj.ForTrace(tr.Seed, 2)
			copies := map[*float64]bool{}
			for _, v := range kept[from:] {
				copies[&v[0]] = true
			}
			guard := &guardrailState{cfg: gr}
			guard.cfg.defaults()
			var prev, prevObserved []float64
			for j, v := range kept[from:] {
				o, faulted, dropped := ti.Telemetry(j, v, prev)
				prev = v
				if dropped {
					guard.noteBlackout()
				}
				guard.observeInterval(o, prevObserved, false, modes[j] == uarch.ModeLowPower)
				guard.tick()
				prevObserved = o
				w := j / k
				if w >= len(p.per) {
					continue // the last two windows decide nothing
				}
				if want := proj.Snapshot(o, true, nil); !bitsEqual(p.per[w][j%k], want) {
					t.Fatalf("%s, %d intervals a window, interval %d (faulted %v, dropped %v): observed %v, want %v",
						tr.Name, k, j, faulted, dropped, p.per[w][j%k], want)
				}
				switch {
				case dropped:
					drops++
				case faulted && copies[&o[0]]:
					freezes++
				case faulted:
					glitches++
				}
			}
			if guard.trips != res.GuardrailTrips {
				t.Fatalf("%s, %d intervals a window: the guardrail tripped %d times, %d times over the replayed vectors",
					tr.Name, k, res.GuardrailTrips, guard.trips)
			}
		}
	}
	if drops < 2 || freezes == 0 || glitches == 0 {
		t.Fatalf("%d dropped, %d frozen and %d glitched intervals observed: the plan must exercise all three, drops repeatedly",
			drops, freezes, glitches)
	}
	for j, v := range out {
		for c := range v {
			if math.Float64bits(v[c]) != math.Float64bits(kept[j][c]) {
				t.Fatalf("interval vector %d, signal %d: handed out as %v, now %v", j, c, kept[j][c], v[c])
			}
		}
	}
}

// unknownVerdicts hands out its inner source's vectors without their
// plausibility verdicts, so the guardrail checks every interval in full.
type unknownVerdicts struct{ inner IntervalSource }

func (s unknownVerdicts) NextInterval(gidx int, mode uarch.Mode, derate float64) *StoredInterval {
	iv := s.inner.NextInterval(gidx, mode, derate)
	if iv == nil {
		return nil
	}
	unknown := *iv
	unknown.Plausible = false
	return &unknown
}

// implausibleTrips counts the guardrail trips on implausible telemetry in
// an event log.
func implausibleTrips(log *obs.EventLog) int {
	n := 0
	for _, e := range log.Events() {
		if e.Kind == "guardrail.trip" && e.Attrs["reason"] == "implausible-telemetry" {
			n++
		}
	}
	return n
}

// TestStoredVerdictsMatchFullCheck holds the trie's stored plausibility
// verdicts to the guardrail's full check: exact deployments that read the
// verdicts must be DeepEqual to the same deployments whose source reports
// every verdict as unknown, under plans that drop, freeze and glitch
// telemetry and derate DRAM, with the guardrail on, and the guardrail must
// trip on implausible telemetry. Every node the deployments grew must
// carry the verdict the full check gives its vector.
func TestStoredVerdictsMatchFullCheck(t *testing.T) {
	s := newDeploySuite(t, 19)
	var injs []*fault.Injector
	for p, rules := range [][]fault.Rule{
		{{Class: fault.TelemetryDrop, Rate: 0.1, Burst: 3}},
		{{Class: fault.CounterFreeze, Rate: 0.1, Burst: 3}},
		{{Class: fault.CounterGlitch, Rate: 0.1, Burst: 3}},
		{{Class: fault.DRAMDerate, Rate: 0.2, Burst: 3, Factor: 4}},
		{
			{Class: fault.TelemetryDrop, Rate: 0.05, Burst: 2},
			{Class: fault.CounterFreeze, Rate: 0.05, Burst: 2},
			{Class: fault.CounterGlitch, Rate: 0.05, Burst: 2},
			{Class: fault.DRAMDerate, Rate: 0.2, Burst: 3, Factor: 2},
		},
	} {
		inj, err := fault.NewInjector(fault.Plan{Seed: int64(41 + p), Rules: rules})
		if err != nil {
			t.Fatal(err)
		}
		injs = append(injs, inj)
	}
	log := obs.NewEventLog()
	obs.SetEventLog(log)
	defer obs.SetEventLog(nil)
	gr := DefaultGuardrail()
	for _, inj := range injs {
		opts := DeployOptions{Guardrail: &gr, Injector: inj}
		for _, g := range s.ctrls {
			k := g.Granularity / g.Interval
			for i, tr := range s.traces {
				got, err := DeployWithOptions(g, tr, s.tel[i], s.cfg, s.pm, opts)
				if err != nil {
					t.Fatal(err)
				}
				src := deployTape(tr, s.cfg).trie(g.Interval, s.tel[i].Intervals()/k*k).source()
				want, err := DeployFrom(g, tr, s.tel[i], s.pm, opts, func() IntervalSource { return unknownVerdicts{src} })
				src.close()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s on %s: stored verdicts give %+v, the full check %+v", g.Name, tr.Name, got, want)
				}
			}
		}
	}
	if implausibleTrips(log) == 0 {
		t.Error("no guardrail trip on implausible telemetry: the plans must exercise the check")
	}
	checkTrieVerdicts(t, s)
}

// checkStored reports whether a stored interval's verdict equals the full
// plausibility check of its vector and its activity the one power
// accounting takes of the vector's events.
func checkStored(iv *StoredInterval) error {
	if want := telemetry.ImplausibleBase(iv.Base, nil) == ""; iv.Plausible != want {
		return fmt.Errorf("stored verdict %v, the full check gives %v", iv.Plausible, want)
	}
	var ev uarch.Events
	telemetry.BaseToEvents(iv.Base, &ev)
	if want := power.ActivityOf(&ev); iv.Activity != want {
		return fmt.Errorf("stored activity %+v, its vector's is %+v", iv.Activity, want)
	}
	return nil
}

// checkTrieVerdicts visits every edge of the suite's deployment tries and
// requires each stored interval to carry its own vector's verdict and
// activity (checkStored).
func checkTrieVerdicts(t *testing.T, s *deploySuite) {
	t.Helper()
	edges := 0
	check := func(n *trieNode) {
		for _, e := range n.edges {
			edges++
			if err := checkStored(&e.iv); err != nil {
				t.Fatalf("a trie edge: %v", err)
			}
		}
	}
	for _, tr := range s.traces {
		rec := deployTape(tr, s.cfg)
		rec.mu.Lock()
		for _, trie := range rec.tries {
			trie.mu.RLock()
			check(&trie.root)
			for _, n := range trie.states {
				check(n)
			}
			trie.mu.RUnlock()
		}
		rec.mu.Unlock()
	}
	if edges == 0 {
		t.Fatal("the deployments stored no trie edges")
	}
}

// readsBoth declares that its predictor reads both window vectors, so the
// deployment computes every vector, as it did before predictors declared
// their inputs.
type readsBoth struct{ Predictor }

func (readsBoth) Reads() Inputs { return ReadsBoth }

// readAllInputs returns g with both models wrapped in readsBoth.
func readAllInputs(g *GatingController) *GatingController {
	both := *g
	both.HighPerf, both.LowPower = readsBoth{g.HighPerf}, readsBoth{g.LowPower}
	return &both
}

// windowHashPredictor is a window model: it gates on a hash of the
// per-interval vectors, and reads nothing else.
type windowHashPredictor struct{}

func (windowHashPredictor) ScoreWindow(_ []float64, per [][]float64) float64 {
	s := 0.0
	for i, v := range per {
		s += telemetryHashPredictor{}.ScoreWindow(v, nil) * float64(i+2)
	}
	return math.Mod(s, 1)
}

func (windowHashPredictor) Reads() Inputs { return ReadsPerInterval }

// readOnlyPlan drops, freezes and glitches telemetry, derates DRAM and
// pins predictions.
func readOnlyPlan(t *testing.T) *fault.Injector {
	t.Helper()
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
	return inj
}

// TestReadOnlyInputsMatchBothRead holds the deployment that computes only
// the window vectors its models read to the one that computes both: on the
// exact path, every deployment of a point model, a window model and a
// controller with one of each must be DeepEqual to the same deployment
// with both models declaring both vectors, over the Table-4 columns and a
// noisy+debug set, at two granularities, bare and under a plan that drops,
// freezes and glitches telemetry, derates DRAM and pins predictions, with
// the guardrail on and off.
func TestReadOnlyInputsMatchBothRead(t *testing.T) {
	s := newDeploySuite(t, 31)
	cs := s.ctrls[0].Counters
	noisyCols, err := ColumnsByName(cs, []string{"l2_misses_smp0", "instructions", "debug_042", "stall_count", "cycles", "instructions"})
	if err != nil {
		t.Fatal(err)
	}
	gr := DefaultGuardrail()
	var switches, injected, trips int
	for _, cols := range [][]int{s.ctrls[0].Columns, noisyCols} {
		for _, m := range []struct {
			name   string
			hi, lo Predictor
		}{
			{"point", telemetryHashPredictor{}, telemetryHashPredictor{}},
			{"window", windowHashPredictor{}, windowHashPredictor{}},
			{"point+window", telemetryHashPredictor{}, windowHashPredictor{}},
		} {
			for _, granularity := range []int{s.cfg.Interval, 2 * s.cfg.Interval} {
				g := &GatingController{
					Name: m.name, HighPerf: m.hi, LowPower: m.lo,
					ThresholdHigh: 0.5, ThresholdLow: 0.5,
					Interval: s.cfg.Interval, Granularity: granularity,
					Counters: cs, Columns: cols, SLA: dataset.SLA{PSLA: 0.9},
				}
				both := readAllInputs(g)
				for _, opts := range []DeployOptions{{}, {Injector: readOnlyPlan(t)}, {Guardrail: &gr, Injector: readOnlyPlan(t)}} {
					for i, tr := range s.traces {
						got, err := DeployWithOptions(g, tr, s.tel[i], s.cfg, s.pm, opts)
						if err != nil {
							t.Fatal(err)
						}
						want, err := DeployWithOptions(both, tr, s.tel[i], s.cfg, s.pm, opts)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s on %d columns, granularity %d, guardrail %v, injector %v, %s: reading only what the model reads gives %+v, reading both %+v",
								m.name, len(cols), granularity, opts.Guardrail != nil, opts.Injector != nil, tr.Name, got, want)
						}
						switches += got.Switches
						injected += int(got.InjectedFaults)
						trips += got.GuardrailTrips
					}
				}
			}
		}
	}
	if switches == 0 || injected == 0 || trips == 0 {
		t.Errorf("%d mode switches, %d injected faults, %d guardrail trips: the cases must exercise all three",
			switches, injected, trips)
	}
}

// TestStoredActivityMatchesEvents: for random base vectors, whole and
// fractional, accounting a stored interval's activity in either mode adds
// to a span exactly what converting its vector to events and adding those
// adds, bit for bit.
func TestStoredActivityMatchesEvents(t *testing.T) {
	pm := power.DefaultModel()
	f := func(raw [40]uint32, div uint8, low bool) bool {
		base := make([]float64, telemetry.NumBase)
		for j := range base {
			base[j] = float64(raw[j]) / float64(1+div%5)
		}
		mode := uarch.ModeHighPerf
		if low {
			mode = uarch.ModeLowPower
		}
		iv := NewStoredInterval(base)
		want := power.Span{Energy: 12.5, Cycles: 7, Instrs: 3}
		got := want
		var ev uarch.Events
		telemetry.BaseToEvents(base, &ev)
		want.Add(pm, &ev, mode)
		got.AddActivity(pm, &iv.Activity, mode)
		return math.Float64bits(got.Energy) == math.Float64bits(want.Energy) &&
			got.Cycles == want.Cycles && got.Instrs == want.Instrs &&
			math.Float64bits(pm.ActivityEnergy(&iv.Activity, mode)) == math.Float64bits(pm.Energy(&ev, mode))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDeployAllocatesPerDeployment is the exact path's allocation guard:
// with every interval served from a warm deployment DAG, a deployment
// allocates as often on a recording of n windows as on one of 2n, bare and
// under a plan that glitches a third of the intervals. The decision loop
// fills the same window vectors for every window and a glitch writes into
// the deployment's own buffers, so what it allocates is per deployment.
func TestDeployAllocatesPerDeployment(t *testing.T) {
	s := newDeploySuite(t, 37)
	g := s.ctrls[1]
	k := g.Granularity / g.Interval
	full := s.tel[0]
	n := full.Intervals() / k / 2
	if n < 3 {
		t.Fatalf("recording of %d intervals: too short for two lengths that both decide", full.Intervals())
	}
	glitchy, err := fault.NewInjector(fault.Plan{Seed: 71, Rules: []fault.Rule{
		{Class: fault.CounterGlitch, Rate: 0.15, Burst: 3},
		{Class: fault.DRAMDerate, Rate: 0.1, Burst: 2, Factor: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []DeployOptions{{}, {Injector: glitchy}} {
		allocs := func(windows int) float64 {
			ref := &dataset.TraceTelemetry{App: full.App, Benchmark: full.Benchmark, Workload: full.Workload,
				TraceName: full.TraceName, Seed: full.Seed,
				HighPerf: full.HighPerf[:windows*k], LowPower: full.LowPower[:windows*k]}
			deploy := func() {
				if _, err := DeployWithOptions(g, s.traces[0], ref, s.cfg, s.pm, opts); err != nil {
					t.Fatal(err)
				}
			}
			deploy() // grows the DAG and sums the reference span
			return testing.AllocsPerRun(20, deploy)
		}
		if short, long := allocs(n), allocs(2*n); short != long {
			t.Errorf("injector %v: a deployment of %d windows allocates %.0f times, one of %d windows %.0f",
				opts.Injector != nil, n, short, 2*n, long)
		}
	}
}
