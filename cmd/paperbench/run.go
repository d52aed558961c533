package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	scaleName     string
	cacheDir      string
	seed          int64
	exps          string
	svgDir        string
	quiet         bool
	workers       int
	manifestPath  string
	resultsPath   string
	cpuProfile    string
	memProfile    string
	checkpointDir string
	artifactsDir  string
	eventsPath    string
	tracePath     string
	debugAddr     string
	simMode       string
	args          []string

	scaleOverride *experiments.Scale
	failAfter     int
}

// errInjectedCrash is the failure the failAfter test hook injects.
var errInjectedCrash = errors.New("injected crash (test hook)")

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

	picked, err := plan(opts.exps)
	if err != nil {
		return err
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
	b := &bench{opts: opts, env: env, stderr: stderr}

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
	var surOracle *surrogate.Oracle
	if simMode != core.SimExact {
		sur, err := b.surrogate()
		if err != nil {
			return err
		}
		surOracle = surrogate.NewOracle(sur, simMode, surrogate.OracleOptions{Seed: opts.seed})
		env.Sim = surOracle
	}

	// Each experiment runs under a span into a private buffer that reaches
	// stdout, its artifact file and the checkpoint store only after it
	// succeeds; a checkpointed one replays its stored bytes instead. Both
	// are recorded once in the results file, so a resumed run counts every
	// experiment exactly once.
	for i, x := range picked {
		if opts.failAfter > 0 && i >= opts.failAfter {
			return errInjectedCrash
		}
		force := x.force
		if x.feeds != nil {
			// A step's result lives only in process memory: replaying it
			// is sound only when every selected reader replays too.
			deps := []string{x.name}
			for _, y := range picked {
				if slices.Contains(x.feeds, y.name) {
					deps = append(deps, y.name)
				}
			}
			force = !ckpt.Has(deps...)
		}
		if e, ok := ckpt.Load(x.name); ok && !force {
			if _, err := io.WriteString(stdout, e.Output); err != nil {
				return err
			}
			results.Add(x.name, e.Seconds, e.Metrics)
			continue
		}
		sp := obs.Start("exp/" + x.name)
		t0 := time.Now()
		var buf bytes.Buffer
		metrics, artifact, err := x.run(b, &buf)
		sp.End()
		if err != nil {
			return err
		}
		secs := time.Since(t0).Seconds()
		if buf.Len() > 0 {
			buf.WriteByte('\n')
		}
		if x.artifact != "" && opts.artifactsDir != "" {
			if err := obs.WriteJSON(filepath.Join(opts.artifactsDir, x.artifact), artifact); err != nil {
				return err
			}
		}
		if _, err := stdout.Write(buf.Bytes()); err != nil {
			return err
		}
		if err := ckpt.Save(experiments.CheckpointEntry{
			Name: x.name, Output: buf.String(), Seconds: secs, Metrics: metrics,
		}); err != nil {
			return err
		}
		results.Add(x.name, secs, metrics)
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
