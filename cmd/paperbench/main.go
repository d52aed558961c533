// Command paperbench regenerates the paper's tables and figures on the
// synthetic reproduction stack.
//
// Usage:
//
//	paperbench [-scale quick|default|full] [-cache DIR] [-seed N] [-workers N] -exp all
//	paperbench -exp table3,fig7,fig8
//	paperbench -scale quick -exp all -manifest m.json -results r.json
//	paperbench -checkpoint ckpt/ -exp all
//	paperbench -cpuprofile cpu.pprof -memprofile mem.pprof -exp fig8
//
// Experiments come from one table (table.go) and run in its order; -h
// lists their names, an unknown one fails at once, and -exp all runs
// every one not marked opt-in. EXPERIMENTS.md describes each. With
// -artifacts DIR, each selected experiment that has a JSON artifact
// writes it into DIR under its BENCH file name once it completes (one
// replayed from -checkpoint writes none); artifacts are the only place
// wall clock appears. With -checkpoint, both control-plane studies
// additionally checkpoint each campaign's control state under the same
// directory, resuming mid-campaign after a kill.
//
// Simulation oracle (see docs/SURROGATE.md): -sim selects how deployments
// are simulated. "exact" (the default) runs the cycle model and is
// byte-identical to earlier releases at any worker count. "surrogate"
// trains an analytic-plus-ML surrogate on the training corpus and replays
// deployments through it (~10-40x faster on soak-dominated paths).
// "validate" runs the surrogate but re-runs a seeded sample of
// deployments exactly, reports the relative-IPC error distribution on
// stderr, and fails the run when the p95 error exceeds the 5% budget.
// The opt-in surrogate-bench experiment times exact versus surrogate
// deployments head to head.
//
// Observability (see README "Observability"): -manifest writes a JSON run
// manifest (per-experiment spans, counters, latency-histogram percentiles,
// run metadata), -results writes machine-readable per-experiment metrics,
// -events writes the structured sim-time event log (guardrail trips, fault
// injections, CRC rejections, ring promotions/rollbacks, flight-recorder
// incident dumps) as deterministically ordered JSONL; deployments log
// under every -sim mode, since the surrogate runs the same decision loop
// as the cycle model. -trace writes the span tree as Chrome trace-event
// JSON loadable in Perfetto, -debug-addr
// serves live /metrics, /healthz, and /debug/pprof while the run is in
// flight, and -cpuprofile/-memprofile write standard pprof profiles. None
// of these perturb experiment output: stdout is byte-identical with and
// without them at any worker count. Note that experiments replayed from a
// -checkpoint emit no events (like counters, events record live work
// only).
//
// Robustness (see README "Robustness"): -checkpoint DIR persists each
// completed experiment's output and metrics atomically under DIR. A run
// killed mid-sweep and rerun with the same flags replays the completed
// experiments verbatim and computes only the rest, producing stdout
// byte-identical to an uninterrupted run.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var opts benchOpts
	flag.StringVar(&opts.scaleName, "scale", "default", "experiment scale: quick, default, or full")
	flag.StringVar(&opts.cacheDir, "cache", ".cache", "telemetry cache directory ('' disables)")
	flag.Int64Var(&opts.seed, "seed", 1, "master seed")
	flag.StringVar(&opts.exps, "exp", "all", "comma-separated experiments, run in table order: "+knownExperiments())
	flag.StringVar(&opts.svgDir, "svg", "", "also render figures as SVG into this directory")
	flag.BoolVar(&opts.quiet, "q", false, "silence progress and summary lines on stderr")
	flag.IntVar(&opts.workers, "workers", 0, "worker pool size (0 = all cores, 1 = serial); output is identical at any setting")
	flag.StringVar(&opts.manifestPath, "manifest", "", "write a JSON run manifest to this file")
	flag.StringVar(&opts.resultsPath, "results", "", "write per-experiment results JSON to this file")
	flag.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&opts.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&opts.checkpointDir, "checkpoint", "", "persist completed experiments under this directory and resume from it")
	flag.StringVar(&opts.artifactsDir, "artifacts", "", "write each selected experiment's JSON artifact (BENCH_*.json) into this directory")
	flag.StringVar(&opts.eventsPath, "events", "", "write the structured event log (guardrail trips, fault injections, ring promotions) as JSONL to this file")
	flag.StringVar(&opts.tracePath, "trace", "", "write the span tree as Chrome trace-event JSON (Perfetto-loadable) to this file")
	flag.StringVar(&opts.debugAddr, "debug-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address while running (e.g. localhost:6060)")
	flag.StringVar(&opts.simMode, "sim", "exact", "simulation oracle: exact, surrogate, or validate (surrogate + seeded exact spot checks)")
	flag.Parse()
	opts.args = os.Args[1:]

	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}
