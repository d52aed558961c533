package main

import (
	"sync/atomic"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/trace"
)

// ingestScope names the fold-latency histogram the fleet workload's
// campaigns observe into, so the ledger reads only their folds.
const ingestScope = "perfbench.ingest.fold"

// span accumulates one layer's calls: work units and busy time.
type span struct{ units, ns atomic.Int64 }

func (s *span) add(units int64, since time.Time) {
	s.units.Add(units)
	s.ns.Add(int64(time.Since(since)))
}

func (s *span) ms() float64 { return float64(s.ns.Load()) / 1e6 }

// ledger is a traced run's record of the calls the benchmark makes into
// each layer. Layers the benchmark cannot wrap from outside the program
// (the cycle model, the flash transport, the ingest fold) are read from
// the program's own counters and histograms over the measured phase.
type ledger struct {
	trace, deploy, ml, campaign span
	run                         *obs.Run
}

func newLedger() *ledger { return &ledger{run: obs.NewRun(obs.Info{Tool: "perfbench"})} }

// timedPredictor times one adaptation model's inference calls.
type timedPredictor struct {
	core.Predictor
	s *span
}

func (p timedPredictor) ScoreWindow(agg []float64, per [][]float64) float64 {
	t0 := time.Now()
	v := p.Predictor.ScoreWindow(agg, per)
	p.s.add(1, t0)
	return v
}

// tracedOracle wraps the simulation oracle every deployment goes through:
// it times the deployment, times the controller's model inference inside
// it, and, for the exact simulator, first replays the trace layer alone
// over the instructions the deployment will read, which is the trace
// generation cost inside the deployment.
type tracedOracle struct {
	core.SimOracle
	l *ledger
}

func (o tracedOracle) Deploy(g *core.GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, pm *power.Model, opts core.DeployOptions) (*core.GuardedDeploymentResult, error) {
	if o.Mode() == core.SimExact {
		o.generate(g, tr, ref, cfg)
	}
	timed := *g
	timed.HighPerf = timedPredictor{g.HighPerf, &o.l.ml}
	timed.LowPower = timedPredictor{g.LowPower, &o.l.ml}
	t0 := time.Now()
	r, err := o.SimOracle.Deploy(&timed, tr, ref, cfg, pm, opts)
	o.l.deploy.add(1, t0)
	return r, err
}

// generate reads the warmup and every recorded window of tr's instruction
// stream, as an exact deployment does.
func (o tracedOracle) generate(g *core.GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry, cfg dataset.Config) {
	k := g.Granularity / g.Interval
	want := cfg.Warmup + ref.Intervals()/k*k*cfg.Interval
	buf := make([]trace.Instruction, cfg.Interval)
	t0 := time.Now()
	s := trace.NewStream(tr)
	read := 0
	for read < want {
		n := s.Read(buf[:min(want-read, len(buf))])
		if n == 0 {
			break
		}
		read += n
	}
	o.l.trace.add(int64(read), t0)
}

// perLayer renders the ledger as the per_layer metrics, each per round of
// operations: work units as counts and self time in milliseconds, where a
// layer's self time excludes the layers it calls. Deployment self time is
// what remains of a deployment after the cycle model, model inference and
// trace generation: telemetry extraction, power accounting and the
// closed-loop decision pipeline (on the surrogate, the interval splice and
// residual too). Decider self time is what remains of a control-plane
// campaign after flash transport, soak deployments and the ingest fold:
// service start-up, telemetry production, leases and gates. Each time is
// wall time on the goroutine that makes the call, summed over the round's
// workers, so self times add up to worker time: procs cores times the
// measured wall time (totalMS). Calls on one worker never overlap: the
// cycle model's probe pass on another core lies inside the Execute call
// that waits for it, and the fleet workload's one scheduler thread runs
// the shard consumers' folds while the control loop waits. The
// trace-generation replay is extra work only a traced run does, so it is
// taken out of the worker time; the remainder no layer accounts for
// includes a worker idling at the end of a round for the others.
func (l *ledger) perLayer(rounds, procs int, totalMS float64, setup setupClock) map[string]metric {
	man := l.run.Finish()
	histMS := func(name string) float64 {
		h := man.Histograms[name]
		return h.MeanMS * float64(h.Count)
	}
	uarchMS := histMS("uarch.execute.batch")
	fwMS := histMS("fleet.flash.latency")
	ingestMS := histMS(ingestScope)
	deployMS := l.deploy.ms() - uarchMS - l.ml.ms() - l.trace.ms()
	deciderMS := 0.0
	if l.campaign.units.Load() > 0 {
		deciderMS = l.campaign.ms() - fwMS - l.deploy.ms() - l.trace.ms() - ingestMS
	}
	attributed := l.trace.ms() + uarchMS + l.ml.ms() + deployMS + fwMS + ingestMS + deciderMS
	workMS := float64(procs)*totalMS - l.trace.ms()

	per := float64(rounds)
	count := func(v int64) metric { return metric{float64(v) / per, "count"} }
	ms := func(v float64) metric { return metric{v / per, "ms"} }
	setupMS := func(layer string) metric { return metric{float64(setup[layer]) / 1e6, "ms"} }
	return map[string]metric{
		"trace.instrs":      count(l.trace.units.Load()),
		"trace.ms":          ms(l.trace.ms()),
		"uarch.instrs":      count(man.Counters["uarch.instructions"]),
		"uarch.ms":          ms(uarchMS),
		"ml.predictions":    count(l.ml.units.Load()),
		"ml.ms":             ms(l.ml.ms()),
		"deploy.count":      count(l.deploy.units.Load()),
		"deploy.ms":         ms(deployMS),
		"fw.decodes":        count(man.Counters["fleet.flash.attempts"]),
		"fw.ms":             ms(fwMS),
		"ingest.intervals":  count(man.Counters["ctrlplane.intervals.ingested"]),
		"ingest.stalls":     count(man.Counters["ctrlplane.ingest.blocked"]),
		"ingest.ms":         ms(ingestMS),
		"decider.ticks":     count(l.campaign.units.Load()),
		"decider.ms":        ms(deciderMS),
		"round.ms":          ms(workMS / float64(procs)),
		"unattributed.ms":   ms(workMS - attributed),
		"setup.corpus_ms":   setupMS("corpus"),
		"setup.simulate_ms": setupMS("simulate"),
		"setup.train_ms":    setupMS("train"),
	}
}
