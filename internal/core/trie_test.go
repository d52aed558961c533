package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"clustergate/internal/fault"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// gateFrom scores 0 for its first n windows and 1 from then on, so a
// deployment gates from window n+2 and its schedule leaves the
// high-performance path at that depth. It counts its calls, so each
// deployment needs its own.
type gateFrom struct{ n, calls int }

func (p *gateFrom) ScoreWindow([]float64, [][]float64) float64 {
	p.calls++
	if p.calls > p.n {
		return 1
	}
	return 0
}

// Reads declares neither vector: the score depends on the call count
// alone.
func (*gateFrom) Reads() Inputs { return 0 }

// trieCase is one deployment: a controller factory (stateful predictors
// serve one deployment each), a trace of the suite and the options.
type trieCase struct {
	ctrl  func() *GatingController
	trace int
	opts  DeployOptions
}

// trieCounters is a reading of the trie counters and of the instructions
// the cycle model timed.
type trieCounters struct{ hits, nodes, merges, instrs int64 }

func readTrieCounters() trieCounters {
	return trieCounters{
		hits:   obs.CounterValue("core.trie.hits"),
		nodes:  obs.CounterValue("core.trie.nodes"),
		merges: obs.CounterValue("core.trie.merges"),
		instrs: obs.CounterValue("uarch.instructions"),
	}
}

func (a trieCounters) sub(b trieCounters) trieCounters {
	return trieCounters{a.hits - b.hits, a.nodes - b.nodes, a.merges - b.merges, a.instrs - b.instrs}
}

// liveRun is one live deployment's schedule and its runner's checkpoint
// after each interval.
type liveRun struct {
	steps []step
	cps   []uarch.Checkpoint
}

// expectTrie returns the trie counters (instrs aside) that deployments
// with the given live runs, grouped by trie (trace, interval size and
// deployment length), must produce. The nodes are the distinct states the
// live runners reach, a state being its checkpoint (which fixes the
// depth); every distinct (depth, state before, step) triple is simulated
// once (core.trie.nodes), the other intervals are hits, and the edges
// that end on a state some other edge reaches are merges.
func expectTrie(runs map[[3]int][]liveRun) (want trieCounters) {
	type edge struct {
		from uarch.Checkpoint // "" for the root
		st   step
	}
	for _, rs := range runs {
		edges := map[edge]bool{}
		states := map[uarch.Checkpoint]bool{}
		for _, r := range rs {
			from := uarch.Checkpoint("")
			for i, st := range r.steps {
				if e := (edge{from, st}); !edges[e] {
					edges[e] = true
					want.nodes++
				} else {
					want.hits++
				}
				states[r.cps[i]] = true
				from = r.cps[i]
			}
		}
		want.merges += int64(len(edges) - len(states))
	}
	return want
}

// runTrieCases deploys every case on the trie over workers workers, then
// live, one by one. It requires each pair to be DeepEqual and returns the
// counters the trie deployments moved alongside the ones the live runs
// predict.
func runTrieCases(t *testing.T, s *deploySuite, cases []trieCase, workers int) (got, want trieCounters) {
	t.Helper()
	results := make([]*GuardedDeploymentResult, len(cases))
	before := readTrieCounters()
	err := parallel.ForEach(workers, len(cases), func(i int) error {
		c := cases[i]
		r, err := DeployWithOptions(c.ctrl(), s.traces[c.trace], s.tel[c.trace], s.cfg, s.pm, c.opts)
		results[i] = r
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got = readTrieCounters().sub(before)
	runs := map[[3]int][]liveRun{}
	for i, c := range cases {
		g := c.ctrl()
		live, src, err := s.liveSchedule(g, c.trace, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], live) {
			t.Fatalf("case %d (%s on %s): trie deployment differs from live\ntrie: %+v\nlive: %+v",
				i, g.Name, s.traces[c.trace].Name, results[i], live)
		}
		k := g.Granularity / g.Interval
		key := [3]int{c.trace, g.Interval, s.tel[c.trace].Intervals() / k * k}
		runs[key] = append(runs[key], liveRun{src.steps, src.cps})
	}
	return got, expectTrie(runs)
}

// withShadow runs f with every exact deployment stepping a shadow tape
// runner of its own along its schedule (shadowCheck), and fails the test
// at the first interval whose base vector, verdict or end state differs
// from what the DAG served.
func withShadow(t *testing.T, f func()) {
	t.Helper()
	var failed atomic.Bool
	var checked atomic.Int64
	shadowCheck = func(shadow *uarch.Runner, depth int, e *trieEdge) {
		shadow.SetMode(e.mode)
		shadow.SetMemDerate(e.derate)
		delta, _ := shadow.Next()
		base := telemetry.ExtractBase(delta)
		what := ""
		switch {
		case !slices.Equal(base, e.iv.Base):
			what = "base vector"
		case (telemetry.ImplausibleVector(base) == "") != e.iv.Plausible:
			what = "plausibility verdict"
		case uarch.Checkpoint(shadow.AppendCheckpoint(nil)) != e.to.cp:
			what = "end state"
		}
		checked.Add(1)
		if what != "" && failed.CompareAndSwap(false, true) {
			t.Errorf("interval %d of a deployment: the DAG's %s differs from the shadow runner's", depth, what)
		}
	}
	defer func() { shadowCheck = nil }()
	f()
	if checked.Load() == 0 {
		t.Error("no deployment ran a shadow")
	}
}

// randomPlans draws n fault plans that derate DRAM at random rates, burst
// lengths and factors, half of them also dropping and glitching telemetry.
func randomPlans(t *testing.T, rng *rand.Rand, n int) []*fault.Injector {
	t.Helper()
	factors := []float64{0, 1.5, 2, 6}
	var out []*fault.Injector
	for p := 0; p < n; p++ {
		plan := fault.Plan{Seed: rng.Int63(), Rules: []fault.Rule{{
			Class: fault.DRAMDerate, Rate: 0.05 + 0.3*rng.Float64(),
			Burst: 1 + rng.Intn(5), Factor: factors[rng.Intn(len(factors))],
		}}}
		if p%2 == 1 {
			plan.Rules = append(plan.Rules,
				fault.Rule{Class: fault.TelemetryDrop, Rate: 0.1, Burst: 2},
				fault.Rule{Class: fault.CounterGlitch, Rate: 0.1, Burst: 2})
		}
		inj, err := fault.NewInjector(plan)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, inj)
	}
	return out
}

// derateFrom returns an injector whose DRAM derate on tr is nominal before
// interval d and raised at d, so the deployment leaves the nominal path
// there.
func derateFrom(t *testing.T, tr *trace.Trace, d int) *fault.Injector {
	t.Helper()
	for seed := int64(0); seed < 10_000; seed++ {
		inj, err := fault.NewInjector(fault.Plan{Seed: seed, Rules: []fault.Rule{{Class: fault.DRAMDerate, Rate: 0.5, Factor: 3}}})
		if err != nil {
			t.Fatal(err)
		}
		ti := inj.ForTrace(tr.Seed, 1)
		ok := ti.MemDerate(d) > 1
		for i := 0; i < d && ok; i++ {
			ok = ti.MemDerate(i) == 1
		}
		if ok {
			return inj
		}
	}
	t.Fatalf("no plan seed derates %s first at interval %d", tr.Name, d)
	return nil
}

// TestTrieDeployMatchesLive is the trie's differential test: deployments
// served from the trace's deployment DAG must be DeepEqual to live
// execution under random fault plans that derate DRAM, with the guardrail
// on and off; under forced divergences at every depth; under two
// granularities on one trace, whose deployments end at different depths
// and so use separate tries; and under an interval twice the recording's,
// whose deployments run the trace dry. Every interval is also held to a
// shadow runner (withShadow). The trie counters must match the states and
// steps of the live runs, and schedules must merge: a deployment gated
// from one depth or derated from another reaches states that others
// reached first.
func TestTrieDeployMatchesLive(t *testing.T) {
	s := newDeploySuiteOf(t, 21, 2_000)
	var cases []trieCase
	gr := DefaultGuardrail()
	for _, inj := range randomPlans(t, rand.New(rand.NewSource(7)), 6) {
		for _, guard := range []*Guardrail{nil, &gr} {
			for _, g := range s.ctrls {
				for i := range s.traces {
					cases = append(cases, trieCase{func() *GatingController { return g }, i, DeployOptions{Guardrail: guard, Injector: inj}})
				}
			}
		}
	}
	// Forced divergences on trace 0: off the high-performance path at
	// depth d+2 by gating, and at depths 0 and 1 by a DRAM derate.
	base := s.ctrls[2]
	for d := s.tel[0].Intervals() - 2; d >= 0; d-- {
		cases = append(cases, trieCase{func() *GatingController {
			g := *base
			p := &gateFrom{n: d}
			g.Name, g.HighPerf, g.LowPower = "gate-from", p, p
			return &g
		}, 0, DeployOptions{}})
	}
	for d := 0; d < 2; d++ {
		cases = append(cases, trieCase{func() *GatingController { return s.ctrls[0] }, 0, DeployOptions{Injector: derateFrom(t, s.traces[0], d)}})
	}
	coarse := *s.ctrls[0]
	coarse.Name, coarse.Interval, coarse.Granularity = "coarse", 2*s.cfg.Interval, 2*s.cfg.Interval
	for _, inj := range randomPlans(t, rand.New(rand.NewSource(9)), 2) {
		cases = append(cases, trieCase{func() *GatingController { return &coarse }, 0, DeployOptions{Injector: inj}})
	}

	var got, want trieCounters
	withShadow(t, func() { got, want = runTrieCases(t, s, cases, 1) })
	if got.hits != want.hits || got.nodes != want.nodes || got.merges != want.merges {
		t.Errorf("trie counters hits/nodes/merges %d/%d/%d, want %d/%d/%d",
			got.hits, got.nodes, got.merges, want.hits, want.nodes, want.merges)
	}
	if got.hits == 0 || got.merges == 0 {
		t.Errorf("%d hits and %d merges: the cases must exercise both", got.hits, got.merges)
	}
	checkTrieVerdicts(t, s)
}

// TestTrieConcurrentDeployments deploys the same traces concurrently,
// contending for each trace's trie, at 1 and 4 workers: every deployment
// must equal live execution and its shadow, and the trie counters and the
// cycle model's instruction count must be the same at both worker counts.
func TestTrieConcurrentDeployments(t *testing.T) {
	var first trieCounters
	for _, workers := range []int{1, 4} {
		s := newDeploySuiteOf(t, 23, 5_000)
		var cases []trieCase
		gr := DefaultGuardrail()
		for _, inj := range randomPlans(t, rand.New(rand.NewSource(3)), 4) {
			for _, g := range s.ctrls {
				for i := range s.traces {
					cases = append(cases, trieCase{func() *GatingController { return g }, i, DeployOptions{Guardrail: &gr, Injector: inj}})
				}
			}
		}
		var got, want trieCounters
		withShadow(t, func() { got, want = runTrieCases(t, s, cases, workers) })
		if got.hits != want.hits || got.nodes != want.nodes || got.merges != want.merges {
			t.Errorf("%d workers: trie counters hits/nodes/merges %d/%d/%d, want %d/%d/%d",
				workers, got.hits, got.nodes, got.merges, want.hits, want.nodes, want.merges)
		}
		if workers == 1 {
			first = got
		} else if got != first {
			t.Errorf("counters at %d workers %+v differ from 1 worker %+v", workers, got, first)
		}
	}
}

// TestTrieShadowFaultStudy runs a tiny fault study, rounds of the suite's
// deployments each under a fresh plan that drops and glitches telemetry
// and derates DRAM in bursts, with the guardrail on, at two workers and
// under the shadow runners: every interval the DAG serves must equal its
// deployment's own cycle model. Later rounds must be served mostly from
// the DAG, through merges.
func TestTrieShadowFaultStudy(t *testing.T) {
	s := newDeploySuite(t, 29)
	gr := DefaultGuardrail()
	before := readTrieCounters()
	withShadow(t, func() {
		for round := int64(0); round < 6; round++ {
			inj, err := fault.NewInjector(fault.Plan{Seed: 1_000_003 + round, Rules: []fault.Rule{
				{Class: fault.TelemetryDrop, Rate: 0.03, Burst: 4},
				{Class: fault.CounterGlitch, Rate: 0.03, Burst: 4},
				{Class: fault.DRAMDerate, Rate: 0.08, Burst: 3, Factor: 4},
			}})
			if err != nil {
				t.Fatal(err)
			}
			n := len(s.ctrls) * len(s.traces)
			if err := parallel.ForEach(2, n, func(i int) error {
				g, tr := s.ctrls[i/len(s.traces)], i%len(s.traces)
				_, err := DeployWithOptions(g, s.traces[tr], s.tel[tr], s.cfg, s.pm, DeployOptions{Guardrail: &gr, Injector: inj})
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
	})
	got := readTrieCounters().sub(before)
	if got.merges == 0 || got.hits <= got.nodes {
		t.Errorf("hits/nodes/merges %d/%d/%d: the study's later rounds must be served mostly from the DAG, through merges",
			got.hits, got.nodes, got.merges)
	}
}

// TestTrieHitAllocatesNothing: a deployment whose schedule the trie
// already stores is served through trieSource.NextInterval without an
// allocation, and under the read lock only.
func TestTrieHitAllocatesNothing(t *testing.T) {
	s := newDeploySuite(t, 15)
	g := s.ctrls[0]
	_, live, err := s.liveSchedule(g, 0, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched := live.steps
	if _, err := DeployWithOptions(g, s.traces[0], s.tel[0], s.cfg, s.pm, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	k := g.Granularity / g.Interval
	src := deployTape(s.traces[0], s.cfg).trie(g.Interval, s.tel[0].Intervals()/k*k).source()
	defer src.close()
	walk := func() {
		src.n, src.depth = &src.t.root, 0
		for _, st := range sched {
			if src.NextInterval(0, st.mode, st.derate) == nil {
				t.Fatal("the trie ran dry inside a stored schedule")
			}
		}
	}
	if a := testing.AllocsPerRun(10, walk); a != 0 {
		t.Errorf("serving %d stored intervals allocates %.1f times", len(sched), a)
	}
	if src.locked || src.r != nil {
		t.Error("a stored schedule left the trie")
	}
}
