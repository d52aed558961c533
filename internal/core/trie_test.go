package core

import (
	"math/rand"
	"reflect"
	"testing"

	"clustergate/internal/fault"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/trace"
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

// trieCase is one deployment: a controller factory (stateful predictors
// serve one deployment each), a trace of the suite and the options.
type trieCase struct {
	ctrl  func() *GatingController
	trace int
	opts  DeployOptions
}

// trieCounters is a reading of the trie counters and of the instructions
// the cycle model timed.
type trieCounters struct{ hits, nodes, catchup, instrs int64 }

func readTrieCounters() trieCounters {
	return trieCounters{
		hits:    obs.CounterValue("core.trie.hits"),
		nodes:   obs.CounterValue("core.trie.nodes"),
		catchup: obs.CounterValue("core.trie.catchup"),
		instrs:  obs.CounterValue("uarch.instructions"),
	}
}

func (a trieCounters) sub(b trieCounters) trieCounters {
	return trieCounters{a.hits - b.hits, a.nodes - b.nodes, a.catchup - b.catchup, a.instrs - b.instrs}
}

// expectTrie returns the trie counters (instrs aside) that deployments
// with the given schedules, grouped by trie (trace, interval size and
// deployment length), must produce: the nodes are the distinct schedule
// prefixes and the hits the other intervals, and every branch of a
// prefix-tree node after its first resumes from the checkpoint at or
// above the node, catching up depth mod checkpointEvery intervals.
// offsets has bit o set when some branch catches up o.
func expectTrie(schedules map[[3]int][][]step) (want trieCounters, offsets uint64) {
	type refNode struct{ kids map[step]*refNode }
	var walk func(n *refNode, depth int)
	walk = func(n *refNode, depth int) {
		if len(n.kids) > 1 {
			o := depth % checkpointEvery
			want.catchup += int64((len(n.kids) - 1) * o)
			offsets |= 1 << o
		}
		for _, k := range n.kids {
			walk(k, depth+1)
		}
	}
	for _, scheds := range schedules {
		root := &refNode{kids: map[step]*refNode{}}
		for _, sc := range scheds {
			n := root
			for _, st := range sc {
				k := n.kids[st]
				if k == nil {
					k = &refNode{kids: map[step]*refNode{}}
					n.kids[st] = k
					want.nodes++
				} else {
					want.hits++
				}
				n = k
			}
		}
		walk(root, 0)
	}
	return want, offsets
}

// runTrieCases deploys every case on the trie over workers workers, then
// live, one by one. It requires each pair to be DeepEqual and returns the
// counters the trie deployments moved alongside the ones their schedules
// predict.
func runTrieCases(t *testing.T, s *deploySuite, cases []trieCase, workers int) (got, want trieCounters, offsets uint64) {
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
	schedules := map[[3]int][][]step{}
	for i, c := range cases {
		g := c.ctrl()
		live, sched, err := s.liveSchedule(g, c.trace, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], live) {
			t.Fatalf("case %d (%s on %s): trie deployment differs from live\ntrie: %+v\nlive: %+v",
				i, g.Name, s.traces[c.trace].Name, results[i], live)
		}
		k := g.Granularity / g.Interval
		key := [3]int{c.trace, g.Interval, s.tel[c.trace].Intervals() / k * k}
		schedules[key] = append(schedules[key], sched)
	}
	want, offsets = expectTrie(schedules)
	return got, want, offsets
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
		ti := inj.ForTrace(tr.Seed)
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
// served from the trace's deployment trie must be DeepEqual to live
// execution under random fault plans that derate DRAM, with the guardrail
// on and off; under forced divergences at every depth, so every checkpoint
// offset is caught up from; under two granularities on one trace, whose
// deployments end at different depths and so use separate tries; and
// under an interval twice the recording's, whose deployments run the
// trace dry. The trie counters must match the prefix tree of the live
// schedules.
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

	got, want, offsets := runTrieCases(t, s, cases, 1)
	if got.hits != want.hits || got.nodes != want.nodes || got.catchup != want.catchup {
		t.Errorf("trie counters hits/nodes/catch-up %d/%d/%d, want %d/%d/%d",
			got.hits, got.nodes, got.catchup, want.hits, want.nodes, want.catchup)
	}
	if all := uint64(1)<<checkpointEvery - 1; offsets != all {
		t.Errorf("caught up from checkpoint offsets %b, want all of %b", offsets, all)
	}
	if got.hits == 0 || got.catchup == 0 {
		t.Errorf("%d hits and %d catch-up intervals: the cases must exercise both", got.hits, got.catchup)
	}
	checkTrieVerdicts(t, s)
}

// TestTrieConcurrentDeployments deploys the same traces concurrently,
// contending for each trace's trie, at 1 and 4 workers: every deployment
// must equal live execution, and the trie counters and the cycle model's
// instruction count must be the same at both worker counts.
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
		got, want, _ := runTrieCases(t, s, cases, workers)
		if got.hits != want.hits || got.nodes != want.nodes || got.catchup != want.catchup {
			t.Errorf("%d workers: trie counters hits/nodes/catch-up %d/%d/%d, want %d/%d/%d",
				workers, got.hits, got.nodes, got.catchup, want.hits, want.nodes, want.catchup)
		}
		if workers == 1 {
			first = got
		} else if got != first {
			t.Errorf("counters at %d workers %+v differ from 1 worker %+v", workers, got, first)
		}
	}
}

// TestTrieHitAllocatesNothing: a deployment whose schedule the trie
// already stores is served through trieSource.NextInterval without an
// allocation, and under the read lock only.
func TestTrieHitAllocatesNothing(t *testing.T) {
	s := newDeploySuite(t, 15)
	g := s.ctrls[0]
	_, sched, err := s.liveSchedule(g, 0, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DeployWithOptions(g, s.traces[0], s.tel[0], s.cfg, s.pm, DeployOptions{}); err != nil {
		t.Fatal(err)
	}
	k := g.Granularity / g.Interval
	src := deployTape(s.traces[0], s.cfg).trie(g.Interval, s.tel[0].Intervals()/k*k).source()
	defer src.close()
	walk := func() {
		src.n, src.depth, src.cp, src.since = &src.t.root, 0, nil, src.since[:0]
		for _, st := range sched {
			if v, _ := src.NextInterval(0, st.mode, st.derate); v == nil {
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
