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
// Experiments: corpus, table3, table4, fig4, fig5, fig6, fig7, fig8, fig9,
// fig10, table5, table6, granularity, guardrail, guardrail-sweep, faults,
// fleet-rollout, ctrlplane-soak, ctrlplane-churn, uarch, dvfs, ablations,
// all. The guardrail-sweep study
// deploys a guarded-budget controller under every fault class across a
// grid of guardrail configurations and prints the exposure/PPW tuning
// frontier; -sweepjson additionally writes the frontier as JSON. The
// fleet-rollout study flashes the trained controller's sealed image across
// a simulated fleet under a grid of rollout policies (staged rings ×
// health gates × transport corruption rates) and prints the
// machines-exposed versus time-to-full-fleet frontier, including each
// policy's blast radius for a semantically bad image; -rolloutjson writes
// that frontier as JSON. The ctrlplane-soak study drives a staged
// campaign across a simulated datacenter (10k-100k machines by scale)
// through the internal/ctrlplane service — pipelined rings, quorum
// promotion with straggler re-flash, continuous telemetry ingest — plus
// the bad-image counterfactual the canary must catch; -ctrlplanejson
// writes its throughput figures (machines/sec, decisions/sec, p95
// decision latency) as JSON, which is the only place wall-clock appears.
// The ctrlplane-churn study re-runs the control plane over an unreliable
// fleet — machines leave, reboot, and join late, telemetry lags, ingest
// shards stall — across a churn-rate × lease-policy sweep, plus a
// bad-image campaign under a third of the fleet flapping that the canary
// must still catch; -churnjson writes the sweep (per-arm completion
// rates, liveness counts, p95 decision latency) as JSON. With
// -checkpoint, both control-plane studies additionally checkpoint each
// campaign's control state under the same directory, resuming
// mid-campaign after a kill.
//
// Simulation oracle (see docs/SURROGATE.md): -sim selects how deployments
// are simulated. "exact" (the default) runs the cycle model and is
// byte-identical to earlier releases at any worker count. "surrogate"
// trains an analytic-plus-ML surrogate on the training corpus and replays
// deployments through it (~10-40x faster on soak-dominated paths).
// "validate" runs the surrogate but re-runs a seeded sample of
// deployments exactly, reports the relative-IPC error distribution on
// stderr, and fails the run when the p95 error exceeds the 5% budget.
// The surrogate-bench experiment (never part of -exp all) times exact
// versus surrogate deployments head to head; -surrogatejson writes its
// speedup and error figures as JSON.
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
	flag.StringVar(&opts.exps, "exp", "all", "comma-separated experiment list")
	flag.StringVar(&opts.svgDir, "svg", "", "also render figures as SVG into this directory")
	flag.BoolVar(&opts.quiet, "q", false, "silence progress and summary lines on stderr")
	flag.IntVar(&opts.workers, "workers", 0, "worker pool size (0 = all cores, 1 = serial); output is identical at any setting")
	flag.StringVar(&opts.manifestPath, "manifest", "", "write a JSON run manifest to this file")
	flag.StringVar(&opts.resultsPath, "results", "", "write per-experiment results JSON to this file")
	flag.StringVar(&opts.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	flag.StringVar(&opts.memProfile, "memprofile", "", "write a pprof heap profile to this file")
	flag.StringVar(&opts.checkpointDir, "checkpoint", "", "persist completed experiments under this directory and resume from it")
	flag.StringVar(&opts.sweepJSONPath, "sweepjson", "", "write the guardrail-sweep frontier as JSON to this file")
	flag.StringVar(&opts.rolloutJSONPath, "rolloutjson", "", "write the fleet-rollout frontier as JSON to this file")
	flag.StringVar(&opts.ctrlplaneJSONPath, "ctrlplanejson", "", "write the ctrlplane-soak throughput figures as JSON to this file")
	flag.StringVar(&opts.churnJSONPath, "churnjson", "", "write the ctrlplane-churn tolerance sweep as JSON to this file")
	flag.StringVar(&opts.eventsPath, "events", "", "write the structured event log (guardrail trips, fault injections, ring promotions) as JSONL to this file")
	flag.StringVar(&opts.tracePath, "trace", "", "write the span tree as Chrome trace-event JSON (Perfetto-loadable) to this file")
	flag.StringVar(&opts.debugAddr, "debug-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address while running (e.g. localhost:6060)")
	flag.StringVar(&opts.simMode, "sim", "exact", "simulation oracle: exact, surrogate, or validate (surrogate + seeded exact spot checks)")
	flag.StringVar(&opts.surrogateJSONPath, "surrogatejson", "", "write the surrogate-bench speedup/error figures as JSON to this file")
	flag.Parse()
	opts.args = os.Args[1:]

	if err := run(opts, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}
