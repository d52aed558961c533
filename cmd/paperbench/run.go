package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/experiments"
	"clustergate/internal/obs"
	"clustergate/internal/report"
	"clustergate/internal/surrogate"
)

// benchOpts carries one paperbench invocation's configuration. The two
// unexported hook fields exist for tests: scaleOverride substitutes an
// arbitrary Scale for the named one, and failAfter > 0 makes run fail with
// errInjectedCrash before starting experiment failAfter+1, simulating a
// mid-sweep kill for checkpoint-resume tests.
type benchOpts struct {
	scaleName         string
	cacheDir          string
	seed              int64
	exps              string
	svgDir            string
	quiet             bool
	workers           int
	manifestPath      string
	resultsPath       string
	cpuProfile        string
	memProfile        string
	checkpointDir     string
	sweepJSONPath     string
	rolloutJSONPath   string
	ctrlplaneJSONPath string
	churnJSONPath     string
	eventsPath        string
	tracePath         string
	debugAddr         string
	simMode           string
	surrogateJSONPath string
	args              []string

	scaleOverride *experiments.Scale
	failAfter     int
}

// errInjectedCrash is the failure the failAfter test hook injects.
var errInjectedCrash = errors.New("injected crash (test hook)")

// experimentNames lists every experiment run selects from, in run order.
// -exp all selects all of them except surrogate-bench, which exists to
// measure wall clock and runs only when named.
var experimentNames = []string{
	"corpus", "table3", "table4", "fig4", "fig5", "fig6", "fig7", "fig8",
	"fig9", "fig10", "table5", "table6", "granularity", "guardrail", "faults",
	"guardrail-sweep", "fleet-rollout", "ctrlplane-soak", "ctrlplane-churn",
	"uarch", "dvfs", "ablations", "surrogate-bench",
}

// run executes the selected experiments, writing experiment output to
// stdout and progress to stderr. Experiment output is buffered per
// experiment and flushed only on completion, so a crash never emits a
// partial experiment; with checkpointing enabled each completed buffer is
// also persisted atomically, which is what makes a resumed run's stdout
// byte-identical to an uninterrupted one.
func run(opts benchOpts, stdout, stderr io.Writer) error {
	var scale experiments.Scale
	switch {
	case opts.scaleOverride != nil:
		scale = *opts.scaleOverride
	case opts.scaleName == "quick":
		scale = experiments.QuickScale()
	case opts.scaleName == "default":
		scale = experiments.DefaultScale()
	case opts.scaleName == "full":
		scale = experiments.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", opts.scaleName)
	}
	scale.Workers = opts.workers

	want := map[string]bool{}
	for _, e := range strings.Split(opts.exps, ",") {
		e = strings.TrimSpace(e)
		if e != "all" && !slices.Contains(experimentNames, e) {
			return fmt.Errorf("unknown experiment %q (known: all, %s)", e, strings.Join(experimentNames, ", "))
		}
		want[e] = true
	}
	// sel panics on a name missing from experimentNames, so the list the
	// check above accepts and the experiments run below cannot drift.
	sel := func(name string) bool {
		if !slices.Contains(experimentNames, name) {
			panic("paperbench: experiment " + name + " is not in experimentNames")
		}
		return want[name] || want["all"] && name != "surrogate-bench"
	}

	stopProfiles, err := obs.StartProfiles(opts.cpuProfile, opts.memProfile)
	if err != nil {
		return err
	}
	run := obs.NewRun(obs.Info{
		Tool: "paperbench", Args: opts.args,
		Seed: opts.seed, Scale: opts.scaleName, Workers: opts.workers,
	})
	obs.SetCurrent(run)
	results := obs.NewResults("paperbench")
	if opts.eventsPath != "" {
		obs.SetEventLog(obs.NewEventLog())
		defer obs.SetEventLog(nil)
	}
	if opts.debugAddr != "" {
		dbg, err := obs.StartDebugServer(opts.debugAddr)
		if err != nil {
			return err
		}
		if !opts.quiet {
			fmt.Fprintf(stderr, "# debug endpoint: http://%s (/metrics /healthz /debug/pprof/)\n", dbg.Addr())
		}
		defer dbg.Close()
	}

	var ckpt *experiments.Checkpoint
	if opts.checkpointDir != "" {
		ckpt, err = experiments.OpenCheckpoint(opts.checkpointDir, opts.seed, opts.scaleName)
		if err != nil {
			return err
		}
	}

	start := time.Now()
	var logw io.Writer
	if !opts.quiet {
		logw = stderr
	}

	// A resumed run checks the previous run's telemetry-cache manifest: if
	// every recorded cache file survives, the env build below replays
	// entirely from disk and the resume is fully offline. The report goes to
	// stderr only — stdout must stay byte-identical to an uninterrupted run.
	if prev, err := ckpt.CacheManifest(); err != nil {
		return err
	} else if len(prev) > 0 && !opts.quiet {
		missing := 0
		for _, r := range prev {
			if _, err := os.Stat(r.Path); err != nil {
				missing++
			}
		}
		if missing == 0 {
			fmt.Fprintf(stderr, "# cache manifest: all %d telemetry cache files present; resuming offline\n", len(prev))
		} else {
			fmt.Fprintf(stderr, "# cache manifest: %d of %d telemetry cache files missing; resume will re-simulate\n", missing, len(prev))
		}
	}

	env, err := experiments.NewEnvLogged(scale, opts.cacheDir, opts.seed, logw)
	if err != nil {
		return err
	}
	if err := ckpt.SaveCacheManifest(dataset.RecordedCacheFiles()); err != nil {
		return err
	}

	// Simulation-oracle selection (-sim). The env above is always built
	// exactly — the surrogate trains on that exact telemetry — and only
	// deployments made after this point route through the oracle.
	simMode := core.SimMode(opts.simMode)
	if opts.simMode == "" {
		simMode = core.SimExact
	}
	switch simMode {
	case core.SimExact, core.SimSurrogate, core.SimValidate:
	default:
		return fmt.Errorf("unknown -sim mode %q (want exact, surrogate, or validate)", opts.simMode)
	}
	var surModel *surrogate.Model
	var surOracle *surrogate.Oracle
	if simMode != core.SimExact || sel("surrogate-bench") {
		t0 := time.Now()
		surModel, err = surrogate.Train(env.HDTR, env.HDTRTel, env.Cfg, surrogate.TrainOptions{
			Workers: scale.Workers,
			Seed:    opts.seed,
		})
		if err != nil {
			return fmt.Errorf("training surrogate: %w", err)
		}
		if !opts.quiet {
			fmt.Fprintf(stderr, "# surrogate: %s backend, %d samples, holdout MAE %.4f p95 %.4f in %.1fs\n",
				surModel.Backend, surModel.Samples, surModel.HoldoutMAE, surModel.HoldoutP95, time.Since(t0).Seconds())
		}
	}
	if simMode != core.SimExact {
		surOracle = surrogate.NewOracle(surModel, simMode, surrogate.OracleOptions{Seed: opts.seed})
		env.Sim = surOracle
	}

	// runExp wraps one experiment with a span, a timed results entry, and
	// crash-safe buffering: f writes to a private buffer that reaches
	// stdout — and the checkpoint store — only after f succeeds. A
	// checkpointed experiment replays its stored bytes instead of running.
	// The force flag skips replay for experiments whose side effects
	// (in-process state feeding later experiments) are needed this run.
	var runErr error
	completed := 0
	runExp := func(name string, force bool, f func(w io.Writer) (map[string]float64, error)) {
		if runErr != nil {
			return
		}
		if opts.failAfter > 0 && completed >= opts.failAfter {
			runErr = errInjectedCrash
			return
		}
		var secs float64
		var metrics map[string]float64
		replayed := false
		if !force {
			if e, ok := ckpt.Load(name); ok {
				if _, err := io.WriteString(stdout, e.Output); err != nil {
					runErr = err
					return
				}
				secs, metrics = e.Seconds, e.Metrics
				replayed = true
			}
		}
		if !replayed {
			sp := obs.Start("exp/" + name)
			t0 := time.Now()
			var buf bytes.Buffer
			var err error
			metrics, err = f(&buf)
			sp.End()
			if err != nil {
				runErr = err
				return
			}
			secs = time.Since(t0).Seconds()
			if _, err := stdout.Write(buf.Bytes()); err != nil {
				runErr = err
				return
			}
			if err := ckpt.Save(experiments.CheckpointEntry{
				Name: name, Output: buf.String(), Seconds: secs, Metrics: metrics,
			}); err != nil {
				runErr = err
				return
			}
		}
		// Single bookkeeping site: replayed and live experiments are
		// recorded once each, identically, so a resumed run's results file
		// counts every experiment exactly once.
		results.Add(name, secs, metrics)
		completed++
	}

	if sel("corpus") {
		runExp("corpus", false, func(w io.Writer) (map[string]float64, error) {
			experiments.PrintCorpus(w, env)
			fmt.Fprintln(w)
			return nil, nil
		})
	}
	if sel("table3") {
		runExp("table3", false, func(w io.Writer) (map[string]float64, error) {
			budget := experiments.Table3Budget(env.Spec)
			models, err := experiments.Table3Models(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintTable3(w, budget, models)
			fmt.Fprintln(w)
			m := map[string]float64{}
			for i, r := range models {
				m[fmt.Sprintf("pgos.%02d", i)] = r.PGOS.Mean
				m[fmt.Sprintf("ops.%02d", i)] = float64(r.Cost.Ops)
			}
			return m, nil
		})
	}
	if sel("table4") {
		runExp("table4", false, func(w io.Writer) (map[string]float64, error) {
			experiments.PrintTable4(w, env)
			fmt.Fprintln(w)
			return nil, nil
		})
	}
	if sel("fig4") {
		runExp("fig4", false, func(w io.Writer) (map[string]float64, error) {
			pts, err := experiments.Fig4Diversity(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig4(w, pts)
			fmt.Fprintln(w)
			m := map[string]float64{}
			for _, p := range pts {
				m[fmt.Sprintf("pgos.apps%d", p.TuningApps)] = p.PGOS.Mean
				m[fmt.Sprintf("rsv.apps%d", p.TuningApps)] = p.RSV.Mean
			}
			return m, nil
		})
	}
	if sel("fig5") {
		runExp("fig5", false, func(w io.Writer) (map[string]float64, error) {
			pts, err := experiments.Fig5Counters(env)
			if err != nil {
				return nil, err
			}
			expert, err := experiments.Fig5Expert(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig5(w, pts, expert)
			fmt.Fprintln(w)
			m := map[string]float64{
				"pgos.expert": expert.PGOS.Mean,
				"rsv.expert":  expert.RSV.Mean,
			}
			for _, p := range pts {
				m[fmt.Sprintf("pgos.r%d", p.Counters)] = p.PGOS.Mean
				m[fmt.Sprintf("rsv.r%d", p.Counters)] = p.RSV.Mean
			}
			return m, nil
		})
	}
	if sel("fig6") {
		runExp("fig6", false, func(w io.Writer) (map[string]float64, error) {
			pts, err := experiments.Fig6Screen(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig6(w, "Figure 6: MLP hyperparameter screen (* fits 50k budget)", pts)
			best := experiments.BestByScreen(pts)
			fmt.Fprintf(w, "  selected topology: %v\n", best.Hidden)
			rfs, err := experiments.Fig6RFScreen(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig6(w, "Figure 6 (RF analogue): forest screen (* fits 40k budget)", rfs)
			fmt.Fprintln(w)
			return map[string]float64{
				"pgos.best": best.PGOS.Mean,
				"rsv.best":  best.RSV.Mean,
				"ops.best":  float64(best.Ops),
			}, nil
		})
	}
	if sel("fig7") {
		runExp("fig7", false, func(w io.Writer) (map[string]float64, error) {
			rows, mean := experiments.Fig7Oracle(env)
			experiments.PrintFig7(w, rows, mean)
			fmt.Fprintln(w)
			if opts.svgDir != "" {
				if err := writeFig7SVG(opts.svgDir, rows); err != nil {
					return nil, err
				}
			}
			return map[string]float64{"mean_residency": mean}, nil
		})
	}

	// fig8, fig9, and table6 all consume the fig8-deploy evaluation, which
	// lives only in process memory. Replaying fig8-deploy from a checkpoint
	// is therefore only sound when every selected dependent is also
	// replayed; otherwise it must run live even if checkpointed.
	var fig8Rows []experiments.Fig8Row
	if sel("fig8") || sel("fig9") || sel("table6") {
		var deps []string
		for _, n := range []string{"fig8", "fig9", "table6"} {
			if sel(n) {
				deps = append(deps, n)
			}
		}
		forceDeploy := !(ckpt.Has(deps...) && ckpt.Has("fig8-deploy"))
		runExp("fig8-deploy", forceDeploy, func(w io.Writer) (map[string]float64, error) {
			gs, err := experiments.BuildFig8Controllers(env)
			if err != nil {
				return nil, err
			}
			fig8Rows, err = experiments.Fig8Evaluate(env, gs)
			if err != nil {
				return nil, err
			}
			m := map[string]float64{}
			for _, r := range fig8Rows {
				m["ppw."+r.Model] = r.Summary.MeanBenchmarkPPWGain()
				m["rsv."+r.Model] = r.Summary.Overall.RSV
				m["pgos."+r.Model] = r.Summary.Overall.Confusion.PGOS()
				m["residency."+r.Model] = r.Summary.Overall.Residency
			}
			return m, nil
		})
	}
	if sel("fig8") {
		runExp("fig8", false, func(w io.Writer) (map[string]float64, error) {
			experiments.PrintFig8(w, fig8Rows)
			fmt.Fprintln(w)
			if opts.svgDir != "" {
				if err := writeFig8SVG(opts.svgDir, fig8Rows); err != nil {
					return nil, err
				}
			}
			return nil, nil
		})
	}
	if sel("fig9") {
		runExp("fig9", false, func(w io.Writer) (map[string]float64, error) {
			var charstar, bestRF *experiments.Fig8Row
			for i := range fig8Rows {
				switch fig8Rows[i].Model {
				case "charstar":
					charstar = &fig8Rows[i]
				case "best-rf":
					bestRF = &fig8Rows[i]
				}
			}
			if charstar != nil && bestRF != nil {
				experiments.PrintFig9(w, experiments.Fig9PerBenchmark(charstar.Summary, bestRF.Summary))
				fmt.Fprintln(w)
			}
			return nil, nil
		})
	}
	if sel("fig10") {
		runExp("fig10", false, func(w io.Writer) (map[string]float64, error) {
			steps, err := experiments.Fig10Ablation(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintFig10(w, steps)
			fmt.Fprintln(w)
			m := map[string]float64{}
			for i, s := range steps {
				m[fmt.Sprintf("rsv.step%d", i)] = s.RSV
				m[fmt.Sprintf("ppw.step%d", i)] = s.PPW
			}
			return m, nil
		})
	}
	if sel("table5") {
		runExp("table5", false, func(w io.Writer) (map[string]float64, error) {
			rows, err := experiments.Table5SLARetune(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintTable5(w, rows)
			fmt.Fprintln(w)
			m := map[string]float64{}
			for _, r := range rows {
				key := fmt.Sprintf("psla%02.0f", 100*r.PSLA)
				m["ppw."+key] = r.PPWGain
				m["rsv."+key] = r.RSV
				m["relperf."+key] = r.RelPerf
			}
			return m, nil
		})
	}
	if sel("table6") {
		runExp("table6", false, func(w io.Writer) (map[string]float64, error) {
			var bestRF *experiments.Fig8Row
			for i := range fig8Rows {
				if fig8Rows[i].Model == "best-rf" {
					bestRF = &fig8Rows[i]
				}
			}
			if bestRF == nil {
				return nil, fmt.Errorf("table6 requires fig8's best-rf run")
			}
			general, err := experiments.BuildGeneralBestRF(env)
			if err != nil {
				return nil, err
			}
			rows, err := experiments.Table6AppSpecific(env, general, bestRF.Summary)
			if err != nil {
				return nil, err
			}
			experiments.PrintTable6(w, rows)
			fmt.Fprintln(w)
			m := map[string]float64{}
			for _, r := range rows {
				m["delta."+r.Benchmark] = r.Delta()
			}
			return m, nil
		})
	}
	if sel("granularity") {
		runExp("granularity", false, func(w io.Writer) (map[string]float64, error) {
			pts, err := experiments.GranularitySweep(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintGranularity(w, pts)
			fmt.Fprintln(w)
			m := map[string]float64{}
			for _, p := range pts {
				key := fmt.Sprintf("g%dk", p.Granularity/1000)
				m["ppw."+key] = p.PPW
				m["rsv."+key] = p.RSV
			}
			return m, nil
		})
	}
	if sel("guardrail") {
		runExp("guardrail", false, func(w io.Writer) (map[string]float64, error) {
			g, err := experiments.BuildGeneralBestRF(env)
			if err != nil {
				return nil, err
			}
			r, err := experiments.GuardrailStudy(env, g)
			if err != nil {
				return nil, err
			}
			experiments.PrintGuardrail(w, r)
			fmt.Fprintln(w)
			return map[string]float64{
				"ppw.bare":      r.BarePPW,
				"ppw.guarded":   r.GuardedPPW,
				"rsv.bare":      r.BareRSV,
				"worst.bare":    r.BareWorst,
				"worst.guarded": r.GuardedWorst,
				"trips":         float64(r.Trips),
			}, nil
		})
	}
	if sel("faults") {
		runExp("faults", false, func(w io.Writer) (map[string]float64, error) {
			g, err := experiments.BuildGeneralBestRF(env)
			if err != nil {
				return nil, err
			}
			r, err := experiments.FaultStudy(env, g)
			if err != nil {
				return nil, err
			}
			experiments.PrintFaultStudy(w, r)
			fmt.Fprintln(w)
			m := map[string]float64{"watchdog.ops": float64(r.Watchdog.Ops)}
			for _, c := range r.Classes {
				key := string(c.Class)
				m["rsv_off."+key] = c.RSVOff
				m["rsv_on."+key] = c.RSVOn
				m["trips."+key] = float64(c.Trips)
				m["injected."+key] = float64(c.Injected)
			}
			return m, nil
		})
	}
	if sel("guardrail-sweep") {
		runExp("guardrail-sweep", false, func(w io.Writer) (map[string]float64, error) {
			g, err := experiments.BuildGuardedBestRF(env)
			if err != nil {
				return nil, err
			}
			r, err := experiments.GuardrailSweep(env, g)
			if err != nil {
				return nil, err
			}
			experiments.PrintGuardrailSweep(w, r)
			fmt.Fprintln(w)
			if err := writeJSON(opts.sweepJSONPath, r); err != nil {
				return nil, err
			}
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
			return m, nil
		})
	}
	if sel("fleet-rollout") {
		runExp("fleet-rollout", false, func(w io.Writer) (map[string]float64, error) {
			g, err := experiments.BuildGeneralBestRF(env)
			if err != nil {
				return nil, err
			}
			r, err := experiments.FleetRollout(env, g)
			if err != nil {
				return nil, err
			}
			experiments.PrintFleetRollout(w, r)
			fmt.Fprintln(w)
			if err := writeJSON(opts.rolloutJSONPath, r); err != nil {
				return nil, err
			}
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
			return m, nil
		})
	}
	if sel("ctrlplane-soak") {
		runExp("ctrlplane-soak", false, func(w io.Writer) (map[string]float64, error) {
			g, err := experiments.BuildGeneralBestRF(env)
			if err != nil {
				return nil, err
			}
			r, err := experiments.CtrlplaneSoak(env, g, opts.checkpointDir)
			if err != nil {
				return nil, err
			}
			experiments.PrintCtrlplane(w, r)
			fmt.Fprintln(w)
			if err := writeJSON(opts.ctrlplaneJSONPath, &obs.CtrlplaneBench{
				Schema: obs.CtrlplaneBenchTag, Machines: r.Machines, Shards: r.Shards,
				Ticks: r.Good.Ticks, Intervals: r.Good.Intervals, Decisions: r.Good.Decisions,
				WallSeconds: r.WallSeconds, MachinesPerSec: r.MachinesPerSec,
				DecisionsPerSec: r.DecisionsPerSec, P95DecisionMS: r.P95DecisionMS,
				Completed: r.Good.Completed, BadCaught: r.Bad.RolledBack,
			}); err != nil {
				return nil, err
			}
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
			return m, nil
		})
	}
	if sel("ctrlplane-churn") {
		runExp("ctrlplane-churn", false, func(w io.Writer) (map[string]float64, error) {
			g, err := experiments.BuildGeneralBestRF(env)
			if err != nil {
				return nil, err
			}
			r, err := experiments.CtrlplaneChurn(env, g, opts.checkpointDir)
			if err != nil {
				return nil, err
			}
			experiments.PrintCtrlplaneChurn(w, r)
			fmt.Fprintln(w)
			bench := obs.CtrlplaneChurnBench{
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
				bench.GoodCompleted = bench.GoodCompleted && a.Report.Completed
				bench.Arms = append(bench.Arms, obs.ChurnBenchArm{
					Key: a.Key, ChurnRate: a.ChurnRate, LeaseTicks: a.LeaseTicks,
					Completed: a.Report.Completed, CompletionRate: a.CompletionRate(),
					Leaves: a.Report.Leaves, Joins: a.Report.Joins,
					GateDeferrals: a.Report.GateDeferrals,

					CatchUpFlashes:   a.Report.CatchUpFlashes,
					StaleQuarantines: a.Report.StaleQuarantines,
				})
			}
			if err := writeJSON(opts.churnJSONPath, &bench); err != nil {
				return nil, err
			}
			m["good.completed"] = 0
			if bench.GoodCompleted {
				m["good.completed"] = 1
			}
			if bench.BadCaught {
				m["bad.caught"] = 1
			}
			return m, nil
		})
	}
	if sel("uarch") {
		runExp("uarch", false, func(w io.Writer) (map[string]float64, error) {
			rows, err := experiments.UarchAblations(env, 2)
			if err != nil {
				return nil, err
			}
			experiments.PrintUarchAblations(w, rows)
			fmt.Fprintln(w)
			return nil, nil
		})
	}
	if sel("dvfs") {
		runExp("dvfs", false, func(w io.Writer) (map[string]float64, error) {
			rows, err := experiments.DVFSSweep(5)
			if err != nil {
				return nil, err
			}
			experiments.PrintDVFS(w, rows)
			fmt.Fprintln(w)
			return nil, nil
		})
	}
	if sel("ablations") {
		runExp("ablations", false, func(w io.Writer) (map[string]float64, error) {
			rows, err := experiments.Ablations(env)
			if err != nil {
				return nil, err
			}
			experiments.PrintAblations(w, rows)

			pred, react, err := experiments.ReactiveAblation(env)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "  predict t+2: PGOS %.1f%% RSV %.2f%% | reactive t: PGOS %.1f%% RSV %.2f%%\n",
				100*pred.PGOS.Mean, 100*pred.RSV.Mean, 100*react.PGOS.Mean, 100*react.RSV.Mean)

			norm, raw, err := experiments.NormalizationAblation(env)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(w, "  normalized: PGOS %.1f%% RSV %.2f%% | raw counts: PGOS %.1f%% RSV %.2f%%\n",
				100*norm.PGOS.Mean, 100*norm.RSV.Mean, 100*raw.PGOS.Mean, 100*raw.RSV.Mean)
			fmt.Fprintln(w)
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
			return m, nil
		})
	}

	// surrogate-bench is opt-in only (never part of -exp all): its stdout is
	// deterministic, but it exists to measure wall-clock, which belongs in
	// -surrogatejson, not in the byte-identical experiment stream.
	if sel("surrogate-bench") {
		runExp("surrogate-bench", true, func(w io.Writer) (map[string]float64, error) {
			g, err := experiments.BuildGeneralBestRF(env)
			if err != nil {
				return nil, err
			}
			r, err := experiments.SurrogateBench(env, surModel, g, 0.05)
			if err != nil {
				return nil, err
			}
			experiments.PrintSurrogateBench(w, r)
			fmt.Fprintln(w)
			if err := writeJSON(opts.surrogateJSONPath, &obs.SurrogateBench{
				Schema: obs.SurrogateBenchTag, Traces: r.Traces, Deploys: r.Deploys,
				Backend: r.TrainBackend, Samples: r.TrainSamples,
				ErrP50: r.ErrP50, ErrP95: r.ErrP95, ErrMax: r.ErrMax,
				PredAgreement: r.PredAgree, Budget: r.Budget, WithinBudget: r.WithinBudget,
				Speedup: r.Speedup, RepeatSpeedup: r.RepeatSpeedup,

				ExactNSPerDeploy:           r.ExactNSPerDeploy,
				ExactRepeatNSPerDeploy:     r.ExactRepeatNSPerDeploy,
				SurrogateNSPerDeploy:       r.ReplayNSPerDeploy,
				SurrogateRepeatNSPerDeploy: r.ReplayRepeatNSPerDeploy,
			}); err != nil {
				return nil, err
			}
			return map[string]float64{
				"err.p50":    r.ErrP50,
				"err.p95":    r.ErrP95,
				"err.max":    r.ErrMax,
				"pred.agree": r.PredAgree,
			}, nil
		})
	}

	if runErr != nil {
		return runErr
	}

	// In validate mode the run fails loudly when the surrogate drifted past
	// its error budget; the spot-check distribution goes to stderr either
	// way so CI logs always show how close the margin was.
	if surOracle != nil && surOracle.Mode() == core.SimValidate {
		rep := surOracle.Report()
		fmt.Fprintf(stderr, "# surrogate validate: %d spot checks, rel IPC err p50 %.4f p95 %.4f max %.4f (budget %.2f)\n",
			rep.Samples, rep.P50, rep.P95Err, rep.Max, rep.Budget)
		if err := surOracle.Check(); err != nil {
			return err
		}
	}

	if !opts.quiet {
		cs := dataset.ReadCacheStats()
		fmt.Fprintf(stderr, "# cache: %d hits, %d misses, %d collapses (%.1f MB read, %.1f MB written)\n",
			cs.Hits, cs.Misses, cs.Collapses,
			float64(cs.BytesRead)/1e6, float64(cs.BytesWritten)/1e6)
		fmt.Fprintf(stderr, "# total %.1fs\n", time.Since(start).Seconds())
	}

	manifest := run.Finish()
	if opts.manifestPath != "" {
		if err := manifest.WriteFile(opts.manifestPath); err != nil {
			return err
		}
	}
	if opts.resultsPath != "" {
		if err := results.WriteFile(opts.resultsPath); err != nil {
			return err
		}
	}
	if opts.tracePath != "" {
		if err := manifest.WriteChromeTrace(opts.tracePath); err != nil {
			return err
		}
	}
	if opts.eventsPath != "" {
		if err := obs.CurrentEventLog().WriteFile(opts.eventsPath); err != nil {
			return err
		}
	}
	return stopProfiles()
}

// writeFig7SVG renders the residency profile as a bar chart.
func writeFig7SVG(dir string, rows []experiments.Fig7Row) error {
	labels := make([]string, len(rows))
	values := make([]float64, len(rows))
	for i, r := range rows {
		labels[i] = r.Benchmark
		values[i] = r.Residency
	}
	c := &report.BarChart{
		Title:  "Figure 7: ideal low-power residency (P_SLA = 0.90)",
		Labels: labels, Values: values, Percent: true,
	}
	return writeSVG(dir, "fig7-residency.svg", c.WriteSVG)
}

// writeFig8SVG renders the model comparison as a PPW-vs-RSV scatter.
func writeFig8SVG(dir string, rows []experiments.Fig8Row) error {
	c := &report.ScatterChart{
		Title:  "Figure 8: PPW gain vs SLA violations",
		XLabel: "RSV (%)", YLabel: "PPW gain (%)",
	}
	for _, r := range rows {
		c.Points = append(c.Points, report.ScatterPoint{
			Label: r.Model,
			X:     100 * r.Summary.Overall.RSV,
			Y:     100 * r.Summary.MeanBenchmarkPPWGain(),
		})
	}
	return writeSVG(dir, "fig8-models.svg", c.WriteSVG)
}

// writeJSON writes an experiment's -*json artifact to path as indented
// JSON; an empty path writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	return obs.WriteJSON(path, v)
}

func writeSVG(dir, name string, render func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
