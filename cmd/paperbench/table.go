package main

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"clustergate/internal/experiments"
	"clustergate/internal/obs"
	"clustergate/internal/surrogate"
)

// experiment is one entry of the table paperbench runs from.
type experiment struct {
	name string
	// optIn keeps the experiment out of -exp all: it runs only when named.
	optIn bool
	// force reruns the experiment even when -checkpoint holds it.
	force bool
	// feeds, set only on a step, names the experiments that read the
	// step's in-process result. A step cannot be selected by name: it runs
	// when any of them is selected, and replays from -checkpoint only when
	// all the selected ones do.
	feeds []string
	// artifact is the file name the value run returns is written to, as
	// JSON, under -artifacts; "" when the experiment has no artifact.
	artifact string
	// run writes the experiment's block to w and returns its metrics for
	// the results file and its artifact value. run() ends every non-empty
	// block with a blank line.
	run func(b *bench, w io.Writer) (map[string]float64, any, error)
}

// bench is what one run's experiments share: the options, the env, the
// surrogate model once trained, and the fig8-deploy evaluation.
type bench struct {
	opts   benchOpts
	env    *experiments.Env
	stderr io.Writer
	sur    *surrogate.Model
	fig8   []experiments.Fig8Row
}

// surrogate returns the run's surrogate model, training it on the first
// call.
func (b *bench) surrogate() (*surrogate.Model, error) {
	if b.sur != nil {
		return b.sur, nil
	}
	t0 := time.Now()
	m, err := surrogate.Train(b.env.HDTR, b.env.HDTRTel, b.env.Cfg, surrogate.TrainOptions{
		Workers: b.env.Scale.Workers,
		Seed:    b.opts.seed,
	})
	if err != nil {
		return nil, fmt.Errorf("training surrogate: %w", err)
	}
	if !b.opts.quiet {
		fmt.Fprintf(b.stderr, "# surrogate: %s backend, %d samples, holdout MAE %.4f p95 %.4f in %.1fs\n",
			m.Backend, m.Samples, m.HoldoutMAE, m.HoldoutP95, time.Since(t0).Seconds())
	}
	b.sur = m
	return m, nil
}

// fig8Row returns the fig8-deploy row of the named model, or nil.
func (b *bench) fig8Row(model string) *experiments.Fig8Row {
	for i := range b.fig8 {
		if b.fig8[i].Model == model {
			return &b.fig8[i]
		}
	}
	return nil
}

// knownExperiments lists what -exp accepts: all, then every selectable
// table entry in run order, the opt-in ones marked.
func knownExperiments() string {
	names := []string{"all"}
	for _, x := range table {
		switch {
		case x.feeds != nil:
		case x.optIn:
			names = append(names, x.name+" (opt-in)")
		default:
			names = append(names, x.name)
		}
	}
	return strings.Join(names, ", ")
}

// plan returns the table entries a comma-separated -exp list selects, in
// table order: the named experiments (all names every one not opt-in),
// and each step that feeds one of them. An unknown name is an error.
func plan(exps string) ([]*experiment, error) {
	byName := map[string]*experiment{}
	for i := range table {
		byName[table[i].name] = &table[i]
	}
	want := map[string]bool{}
	for _, name := range strings.Split(exps, ",") {
		name = strings.TrimSpace(name)
		if x := byName[name]; name != "all" && (x == nil || x.feeds != nil) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", name, knownExperiments())
		}
		want[name] = true
	}
	selected := func(name string) bool {
		return want[name] || want["all"] && !byName[name].optIn
	}
	var out []*experiment
	for i := range table {
		x := &table[i]
		if x.feeds == nil && selected(x.name) || slices.ContainsFunc(x.feeds, selected) {
			out = append(out, x)
		}
	}
	return out, nil
}

// table lists every experiment in run order.
var table = []experiment{
	{name: "corpus", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		experiments.PrintCorpus(w, b.env)
		return nil, nil, nil
	}},
	{name: "table3", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		budget := experiments.Table3Budget(b.env.Spec)
		models, err := experiments.Table3Models(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintTable3(w, budget, models)
		m := map[string]float64{}
		for i, r := range models {
			m[fmt.Sprintf("pgos.%02d", i)] = r.PGOS.Mean
			m[fmt.Sprintf("ops.%02d", i)] = float64(r.Cost.Ops)
		}
		return m, nil, nil
	}},
	{name: "table4", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		experiments.PrintTable4(w, b.env)
		return nil, nil, nil
	}},
	{name: "fig4", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		pts, err := experiments.Fig4Diversity(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintFig4(w, pts)
		m := map[string]float64{}
		for _, p := range pts {
			m[fmt.Sprintf("pgos.apps%d", p.TuningApps)] = p.PGOS.Mean
			m[fmt.Sprintf("rsv.apps%d", p.TuningApps)] = p.RSV.Mean
		}
		return m, nil, nil
	}},
	{name: "fig5", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		pts, err := experiments.Fig5Counters(b.env)
		if err != nil {
			return nil, nil, err
		}
		expert, err := experiments.Fig5Expert(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintFig5(w, pts, expert)
		m := map[string]float64{
			"pgos.expert": expert.PGOS.Mean,
			"rsv.expert":  expert.RSV.Mean,
		}
		for _, p := range pts {
			m[fmt.Sprintf("pgos.r%d", p.Counters)] = p.PGOS.Mean
			m[fmt.Sprintf("rsv.r%d", p.Counters)] = p.RSV.Mean
		}
		return m, nil, nil
	}},
	{name: "fig6", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		pts, err := experiments.Fig6Screen(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintFig6(w, "Figure 6: MLP hyperparameter screen (* fits 50k budget)", pts)
		best := experiments.BestByScreen(pts)
		fmt.Fprintf(w, "  selected topology: %v\n", best.Hidden)
		rfs, err := experiments.Fig6RFScreen(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintFig6(w, "Figure 6 (RF analogue): forest screen (* fits 40k budget)", rfs)
		return map[string]float64{
			"pgos.best": best.PGOS.Mean,
			"rsv.best":  best.RSV.Mean,
			"ops.best":  float64(best.Ops),
		}, nil, nil
	}},
	{name: "fig7", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		rows, mean := experiments.Fig7Oracle(b.env)
		experiments.PrintFig7(w, rows, mean)
		if b.opts.svgDir != "" {
			if err := writeFig7SVG(b.opts.svgDir, rows); err != nil {
				return nil, nil, err
			}
		}
		return map[string]float64{"mean_residency": mean}, nil, nil
	}},
	{name: "fig8-deploy", feeds: []string{"fig8", "fig9", "table6"}, run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		gs, err := experiments.BuildFig8Controllers(b.env)
		if err != nil {
			return nil, nil, err
		}
		if b.fig8, err = experiments.Fig8Evaluate(b.env, gs); err != nil {
			return nil, nil, err
		}
		m := map[string]float64{}
		for _, r := range b.fig8 {
			m["ppw."+r.Model] = r.Summary.MeanBenchmarkPPWGain()
			m["rsv."+r.Model] = r.Summary.Overall.RSV
			m["pgos."+r.Model] = r.Summary.Overall.Confusion.PGOS()
			m["residency."+r.Model] = r.Summary.Overall.Residency
		}
		return m, nil, nil
	}},
	{name: "fig8", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		experiments.PrintFig8(w, b.fig8)
		if b.opts.svgDir != "" {
			if err := writeFig8SVG(b.opts.svgDir, b.fig8); err != nil {
				return nil, nil, err
			}
		}
		return nil, nil, nil
	}},
	{name: "fig9", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		if charstar, bestRF := b.fig8Row("charstar"), b.fig8Row("best-rf"); charstar != nil && bestRF != nil {
			experiments.PrintFig9(w, experiments.Fig9PerBenchmark(charstar.Summary, bestRF.Summary))
		}
		return nil, nil, nil
	}},
	{name: "fig10", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		steps, err := experiments.Fig10Ablation(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintFig10(w, steps)
		m := map[string]float64{}
		for i, s := range steps {
			m[fmt.Sprintf("rsv.step%d", i)] = s.RSV
			m[fmt.Sprintf("ppw.step%d", i)] = s.PPW
		}
		return m, nil, nil
	}},
	{name: "table5", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		rows, err := experiments.Table5SLARetune(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintTable5(w, rows)
		m := map[string]float64{}
		for _, r := range rows {
			key := fmt.Sprintf("psla%02.0f", 100*r.PSLA)
			m["ppw."+key] = r.PPWGain
			m["rsv."+key] = r.RSV
			m["relperf."+key] = r.RelPerf
		}
		return m, nil, nil
	}},
	{name: "table6", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		bestRF := b.fig8Row("best-rf")
		if bestRF == nil {
			return nil, nil, fmt.Errorf("table6 requires fig8's best-rf run")
		}
		general, err := b.env.GeneralBestRF()
		if err != nil {
			return nil, nil, err
		}
		rows, err := experiments.Table6AppSpecific(b.env, general, bestRF.Summary)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintTable6(w, rows)
		m := map[string]float64{}
		for _, r := range rows {
			m["delta."+r.Benchmark] = r.Delta()
		}
		return m, nil, nil
	}},
	{name: "granularity", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		pts, err := experiments.GranularitySweep(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintGranularity(w, pts)
		m := map[string]float64{}
		for _, p := range pts {
			key := fmt.Sprintf("g%dk", p.Granularity/1000)
			m["ppw."+key] = p.PPW
			m["rsv."+key] = p.RSV
		}
		return m, nil, nil
	}},
	{name: "guardrail", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		g, err := b.env.GeneralBestRF()
		if err != nil {
			return nil, nil, err
		}
		r, err := experiments.GuardrailStudy(b.env, g)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintGuardrail(w, r)
		return map[string]float64{
			"ppw.bare":      r.BarePPW,
			"ppw.guarded":   r.GuardedPPW,
			"rsv.bare":      r.BareRSV,
			"worst.bare":    r.BareWorst,
			"worst.guarded": r.GuardedWorst,
			"trips":         float64(r.Trips),
		}, nil, nil
	}},
	{name: "faults", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		g, err := b.env.GeneralBestRF()
		if err != nil {
			return nil, nil, err
		}
		r, err := experiments.FaultStudy(b.env, g)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintFaultStudy(w, r)
		m := map[string]float64{"watchdog.ops": float64(r.Watchdog.Ops)}
		for _, c := range r.Classes {
			key := string(c.Class)
			m["rsv_off."+key] = c.RSVOff
			m["rsv_on."+key] = c.RSVOn
			m["trips."+key] = float64(c.Trips)
			m["injected."+key] = float64(c.Injected)
		}
		return m, nil, nil
	}},
	{name: "guardrail-sweep", artifact: "BENCH_guardrail_sweep.json", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		g, err := experiments.BuildGuardedBestRF(b.env)
		if err != nil {
			return nil, nil, err
		}
		r, err := experiments.GuardrailSweep(b.env, g)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintGuardrailSweep(w, r)
		m := map[string]float64{
			"watchdog.ops":    float64(r.WatchdogOps),
			"detector.flips":  float64(r.DetectorFlips),
			"detector.caught": float64(r.DetectorCaught),
		}
		for _, row := range r.Rows {
			m["exposure."+row.Key] = row.MeanExposure
			m["ppw."+row.Key] = row.PPW
			m["trips."+row.Key] = float64(row.Trips)
		}
		if r.Best != "" {
			m["dominates"] = 1
		}
		return m, r, nil
	}},
	{name: "fleet-rollout", artifact: "BENCH_fleet_rollout.json", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		g, err := b.env.GeneralBestRF()
		if err != nil {
			return nil, nil, err
		}
		r, err := experiments.FleetRollout(b.env, g)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintFleetRollout(w, r)
		m := map[string]float64{"machines": float64(r.Machines)}
		for _, row := range r.Rows {
			m["exposed."+row.Key] = float64(row.Exposed)
			m["installed."+row.Key] = float64(row.Installed)
			m["time."+row.Key] = float64(row.TimeSteps)
			m["bad_flashed."+row.Key] = float64(row.BadFlashed)
			if row.BadCaught {
				m["bad_caught."+row.Key] = 1
			}
		}
		return m, r, nil
	}},
	{name: "ctrlplane-soak", artifact: "BENCH_ctrlplane.json", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		g, err := b.env.GeneralBestRF()
		if err != nil {
			return nil, nil, err
		}
		r, err := experiments.CtrlplaneSoak(b.env, g, b.opts.checkpointDir)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintCtrlplane(w, r)
		m := map[string]float64{
			"machines":       float64(r.Machines),
			"good.ticks":     float64(r.Good.Ticks),
			"good.flashed":   float64(r.Good.Flashed),
			"good.exposed":   float64(r.Good.Exposed),
			"good.decisions": float64(r.Good.Decisions),
			"bad.flashed":    float64(r.Bad.Flashed),
		}
		if r.Good.Completed {
			m["good.completed"] = 1
		}
		if r.Bad.RolledBack {
			m["bad.caught"] = 1
		}
		return m, &obs.CtrlplaneBench{
			Schema: obs.CtrlplaneBenchTag, Machines: r.Machines, Shards: r.Shards,
			Ticks: r.Good.Ticks, Intervals: r.Good.Intervals, Decisions: r.Good.Decisions,
			WallSeconds: r.WallSeconds, MachinesPerSec: r.MachinesPerSec,
			DecisionsPerSec: r.DecisionsPerSec, P95DecisionMS: r.P95DecisionMS,
			Completed: r.Good.Completed, BadCaught: r.Bad.RolledBack,
		}, nil
	}},
	{name: "ctrlplane-churn", artifact: "BENCH_ctrlplane_churn.json", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		g, err := b.env.GeneralBestRF()
		if err != nil {
			return nil, nil, err
		}
		r, err := experiments.CtrlplaneChurn(b.env, g, b.opts.checkpointDir)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintCtrlplaneChurn(w, r)
		churn := &obs.CtrlplaneChurnBench{
			Schema: obs.CtrlplaneChurnBenchTag, Machines: r.Machines,
			WallSeconds: r.WallSeconds, P95DecisionMS: r.P95DecisionMS,

			Arms:          make([]obs.ChurnBenchArm, 0, len(r.Arms)),
			GoodCompleted: true,
			BadCaught:     r.Bad.RolledBack && r.Bad.HaltedRing == 0,
		}
		m := map[string]float64{"machines": float64(r.Machines)}
		for i := range r.Arms {
			a := &r.Arms[i]
			m["completion."+a.Key] = a.CompletionRate()
			m["stale."+a.Key] = float64(a.Report.StaleQuarantines)
			m["catchup."+a.Key] = float64(a.Report.CatchUpFlashes)
			churn.GoodCompleted = churn.GoodCompleted && a.Report.Completed
			churn.Arms = append(churn.Arms, obs.ChurnBenchArm{
				Key: a.Key, ChurnRate: a.ChurnRate, LeaseTicks: a.LeaseTicks,
				Completed: a.Report.Completed, CompletionRate: a.CompletionRate(),
				Leaves: a.Report.Leaves, Joins: a.Report.Joins,
				GateDeferrals: a.Report.GateDeferrals,

				CatchUpFlashes:   a.Report.CatchUpFlashes,
				StaleQuarantines: a.Report.StaleQuarantines,
			})
		}
		m["good.completed"] = 0
		if churn.GoodCompleted {
			m["good.completed"] = 1
		}
		if churn.BadCaught {
			m["bad.caught"] = 1
		}
		return m, churn, nil
	}},
	{name: "uarch", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		rows, err := experiments.UarchAblations(b.env, 2)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintUarchAblations(w, rows)
		return nil, nil, nil
	}},
	{name: "dvfs", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		rows, err := experiments.DVFSSweep(5)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintDVFS(w, rows)
		return nil, nil, nil
	}},
	{name: "ablations", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		rows, err := experiments.Ablations(b.env)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintAblations(w, rows)

		pred, react, err := experiments.ReactiveAblation(b.env)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(w, "  predict t+2: PGOS %.1f%% RSV %.2f%% | reactive t: PGOS %.1f%% RSV %.2f%%\n",
			100*pred.PGOS.Mean, 100*pred.RSV.Mean, 100*react.PGOS.Mean, 100*react.RSV.Mean)

		norm, raw, err := experiments.NormalizationAblation(b.env)
		if err != nil {
			return nil, nil, err
		}
		fmt.Fprintf(w, "  normalized: PGOS %.1f%% RSV %.2f%% | raw counts: PGOS %.1f%% RSV %.2f%%\n",
			100*norm.PGOS.Mean, 100*norm.RSV.Mean, 100*raw.PGOS.Mean, 100*raw.RSV.Mean)
		m := map[string]float64{
			"pgos.predict":    pred.PGOS.Mean,
			"rsv.predict":     pred.RSV.Mean,
			"pgos.reactive":   react.PGOS.Mean,
			"rsv.reactive":    react.RSV.Mean,
			"pgos.normalized": norm.PGOS.Mean,
			"pgos.raw":        raw.PGOS.Mean,
		}
		for _, r := range rows {
			m["ppw."+r.Label] = r.PPWGain
			m["rsv."+r.Label] = r.RSV
		}
		return m, nil, nil
	}},
	// surrogate-bench is opt-in and always reruns: its stdout is
	// deterministic, but it exists to measure wall clock, which belongs in
	// its artifact, not in the byte-identical experiment stream.
	{name: "surrogate-bench", optIn: true, force: true, artifact: "BENCH_surrogate.json", run: func(b *bench, w io.Writer) (map[string]float64, any, error) {
		sur, err := b.surrogate()
		if err != nil {
			return nil, nil, err
		}
		g, err := b.env.GeneralBestRF()
		if err != nil {
			return nil, nil, err
		}
		r, err := experiments.SurrogateBench(b.env, sur, g, 0.05)
		if err != nil {
			return nil, nil, err
		}
		experiments.PrintSurrogateBench(w, r)
		m := map[string]float64{
			"err.p50":    r.ErrP50,
			"err.p95":    r.ErrP95,
			"err.max":    r.ErrMax,
			"pred.agree": r.PredAgree,
		}
		return m, &obs.SurrogateBench{
			Schema: obs.SurrogateBenchTag, Traces: r.Traces, Deploys: r.Deploys,
			Backend: r.TrainBackend, Samples: r.TrainSamples,
			ErrP50: r.ErrP50, ErrP95: r.ErrP95, ErrMax: r.ErrMax,
			PredAgreement: r.PredAgree, Budget: r.Budget, WithinBudget: r.WithinBudget,
			Speedup: r.Speedup, RepeatSpeedup: r.RepeatSpeedup,

			ExactNSPerDeploy:           r.ExactNSPerDeploy,
			ExactRepeatNSPerDeploy:     r.ExactRepeatNSPerDeploy,
			SurrogateNSPerDeploy:       r.ReplayNSPerDeploy,
			SurrogateRepeatNSPerDeploy: r.ReplayRepeatNSPerDeploy,
		}, nil
	}},
}
