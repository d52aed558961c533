// Command obsdiff diffs two observability artifacts — run manifests
// (paperbench -manifest), results files (-results), or uarch bench files
// (scripts/uarch-bench-json.go) — and flags regressions beyond tolerance.
// scripts/check.sh runs it against the checked-in BENCH baselines as the
// repo's performance gate.
//
// Usage:
//
//	obsdiff [-tol F] [-ctol F] [-mtol F] [-skip GLOBS] BASELINE CURRENT
//
// The two files must be the same schema; obsdiff detects it from the
// content (uarch-bench/v1, surrogate-bench/v1 or v2, ctrlplane-bench/v1,
// ctrlplane-churn-bench/v1, a results file's "results" array, or a run
// manifest's "counters"). Three tolerances, one per value class:
//
//   - Timing (ns_per_op, histogram percentiles, wall_seconds): noisy,
//     gated at -tol relative slowdown (default 0.5 = flag a >1.5×
//     slowdown; speedups never flag). wall_seconds is warn-only.
//   - Counters (manifest counter deltas, histogram sample counts,
//     allocs_per_op): deterministic for a fixed configuration, gated at
//     -ctol relative change in either direction (default 0 = exact).
//     Keys matching a -skip glob (default "dataset.cache.*,*.peak",
//     which vary with cache state and core count) are ignored.
//   - Result metrics (per-experiment "metrics" maps): the experiment
//     outputs themselves, gated at -mtol relative change in either
//     direction (default 1e-6); any drift means the science changed.
//
// Keys present in only one file are warnings, not regressions, so adding
// instrumentation never breaks the gate. Exit status: 0 clean (warnings
// allowed), 1 regression, 2 usage or schema error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// tolerances carries the three value-class tolerances and skip globs.
type tolerances struct {
	timing, counter, metric float64
	skips                   []string
}

// run is the testable entry point; returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var tol tolerances
	var skip string
	fs.Float64Var(&tol.timing, "tol", 0.5, "relative slowdown tolerance for timing values")
	fs.Float64Var(&tol.counter, "ctol", 0, "relative tolerance for counter values (0 = exact)")
	fs.Float64Var(&tol.metric, "mtol", 1e-6, "relative tolerance for experiment result metrics")
	fs.StringVar(&skip, "skip", "dataset.cache.*,*.peak", "comma-separated counter-key globs to ignore")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: obsdiff [-tol F] [-ctol F] [-mtol F] [-skip GLOBS] BASELINE CURRENT")
		return 2
	}
	for _, g := range strings.Split(skip, ",") {
		if g = strings.TrimSpace(g); g != "" {
			tol.skips = append(tol.skips, g)
		}
	}

	base, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	cur, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "obsdiff:", err)
		return 2
	}
	bs, cs := schema(base), schema(cur)
	if bs != cs {
		fmt.Fprintf(stderr, "obsdiff: schema mismatch: %s is %s, %s is %s\n", fs.Arg(0), bs, fs.Arg(1), cs)
		return 2
	}

	d := &differ{w: stdout, tol: tol}
	switch bs {
	case "uarch-bench":
		d.diffUarch(base, cur)
	case "surrogate-bench":
		d.diffSurrogate(base, cur)
	case "ctrlplane-bench":
		d.diffCtrlplane(base, cur)
	case "ctrlplane-churn-bench":
		d.diffCtrlplaneChurn(base, cur)
	case "results":
		d.diffResults(base, cur)
	case "manifest":
		d.diffManifest(base, cur)
	default:
		fmt.Fprintf(stderr, "obsdiff: unrecognised schema in %s\n", fs.Arg(0))
		return 2
	}
	fmt.Fprintf(stdout, "obsdiff: %d regression(s), %d warning(s) [%s]\n", d.regressions, d.warnings, bs)
	if d.regressions > 0 {
		return 1
	}
	return 0
}

// load parses one JSON artifact into a generic map.
func load(p string) (map[string]any, error) {
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return doc, nil
}

// schema classifies a parsed artifact.
func schema(doc map[string]any) string {
	if s, _ := doc["schema"].(string); strings.HasPrefix(s, "uarch-bench/") {
		return "uarch-bench"
	}
	if s, _ := doc["schema"].(string); strings.HasPrefix(s, "surrogate-bench/") {
		return "surrogate-bench"
	}
	if s, _ := doc["schema"].(string); strings.HasPrefix(s, "ctrlplane-churn-bench/") {
		return "ctrlplane-churn-bench"
	}
	if s, _ := doc["schema"].(string); strings.HasPrefix(s, "ctrlplane-bench/") {
		return "ctrlplane-bench"
	}
	if _, ok := doc["results"]; ok {
		return "results"
	}
	if _, ok := doc["tool"]; ok {
		return "manifest"
	}
	return "unknown"
}

// differ accumulates findings.
type differ struct {
	w           io.Writer
	tol         tolerances
	regressions int
	warnings    int
}

func (d *differ) fail(key string, base, cur float64, note string) {
	d.regressions++
	fmt.Fprintf(d.w, "REGRESSION %-40s baseline %v, current %v (%s)\n", key, base, cur, note)
}

func (d *differ) warn(format string, args ...any) {
	d.warnings++
	fmt.Fprintf(d.w, "WARN %s\n", fmt.Sprintf(format, args...))
}

// skipped reports whether a counter key matches a -skip glob.
func (d *differ) skipped(key string) bool {
	for _, g := range d.tol.skips {
		if ok, _ := path.Match(g, key); ok {
			return true
		}
	}
	return false
}

// relDelta is (cur-base)/base; a zero baseline compares exactly.
func relDelta(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return 1
	}
	return (cur - base) / base
}

// slower flags cur when it exceeds base by more than the timing
// tolerance; improvements never flag.
func (d *differ) slower(key string, base, cur float64) {
	if r := relDelta(base, cur); r > d.tol.timing {
		d.fail(key, base, cur, fmt.Sprintf("%.0f%% slower > %.0f%% tolerance", 100*r, 100*d.tol.timing))
	}
}

// drifted flags cur when it differs from base in either direction beyond
// tol.
func (d *differ) drifted(key string, base, cur, tol float64) {
	if r := relDelta(base, cur); r > tol || r < -tol {
		d.fail(key, base, cur, fmt.Sprintf("drift %.2g > %.2g tolerance", r, tol))
	}
}

// num reads a float out of a generic JSON map.
func num(m map[string]any, key string) (float64, bool) {
	v, ok := m[key].(float64)
	return v, ok
}

// submap reads a nested object out of a generic JSON map.
func submap(m map[string]any, key string) map[string]any {
	v, _ := m[key].(map[string]any)
	return v
}

// sortedNames returns a map's keys sorted, so findings print stably.
func sortedNames(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// bothAndOnly partitions baseline/current keys into shared and one-sided;
// one-sided keys are warned once each.
func (d *differ) bothAndOnly(what string, base, cur map[string]any) []string {
	var shared []string
	for _, k := range sortedNames(base) {
		if _, ok := cur[k]; ok {
			shared = append(shared, k)
		} else {
			d.warn("%s %q only in baseline", what, k)
		}
	}
	for _, k := range sortedNames(cur) {
		if _, ok := base[k]; !ok {
			d.warn("%s %q only in current", what, k)
		}
	}
	return shared
}

// diffUarch compares uarch-bench/v1 files: per-benchmark timing at the
// timing tolerance, allocation counts at the counter tolerance.
func (d *differ) diffUarch(base, cur map[string]any) {
	bb, cb := submap(base, "benchmarks"), submap(cur, "benchmarks")
	for _, name := range d.bothAndOnly("benchmark", bb, cb) {
		bm, cm := submap(bb, name), submap(cb, name)
		for _, k := range []string{"ns_per_op", "ns_per_instr"} {
			if bv, ok := num(bm, k); ok {
				if cv, ok := num(cm, k); ok {
					d.slower(name+"."+k, bv, cv)
				}
			}
		}
		for _, k := range []string{"allocs_per_op", "bytes_per_op"} {
			if bv, ok := num(bm, k); ok {
				if cv, ok := num(cm, k); ok {
					d.drifted(name+"."+k, bv, cv, d.tol.counter)
				}
			}
		}
	}
}

// diffSurrogate compares surrogate-bench files: per-deploy timings at
// the timing tolerance (v2's repeat timings too, when both files have
// them; v1 has none), the surrogate's error percentiles as one-sided
// accuracy gates (err_p95 may not grow past the timing tolerance — error
// shrinking never flags), and a within_budget verdict that flipped to
// false is always a regression.
func (d *differ) diffSurrogate(base, cur map[string]any) {
	for _, k := range []string{"exact_ns_per_deploy", "surrogate_ns_per_deploy",
		"exact_repeat_ns_per_deploy", "surrogate_repeat_ns_per_deploy"} {
		if bv, ok := num(base, k); ok {
			if cv, ok := num(cur, k); ok {
				d.slower(k, bv, cv)
			}
		}
	}
	for _, k := range []string{"err_p95", "err_max"} {
		if bv, ok := num(base, k); ok {
			if cv, ok := num(cur, k); ok {
				d.slower(k, bv, cv)
			}
		}
	}
	if bw, ok := base["within_budget"].(bool); ok {
		if cw, ok := cur["within_budget"].(bool); ok && bw && !cw {
			d.fail("within_budget", 1, 0, "surrogate fell out of its error budget")
		}
	}
	if bv, ok := num(base, "pred_agreement"); ok {
		if cv, ok := num(cur, "pred_agreement"); ok && cv < bv-0.05 {
			d.warn("pred_agreement %.3f -> %.3f (warn-only)", bv, cv)
		}
	}
}

// diffCtrlplane compares ctrlplane-bench/v1 files: throughput
// (machines/sec, decisions/sec) as one-sided gates at the timing
// tolerance — a drop beyond tolerance is a regression, gains never flag —
// the p95 decision latency likewise one-sided upward, wall clock
// warn-only, and campaign-outcome verdicts (completed, bad_caught) that
// flipped to false always regressions. Volume fields (machines,
// intervals, decisions) are deterministic and gated at the counter
// tolerance.
func (d *differ) diffCtrlplane(base, cur map[string]any) {
	for _, k := range []string{"machines_per_sec", "decisions_per_sec"} {
		if bv, ok := num(base, k); ok {
			if cv, ok := num(cur, k); ok {
				if r := relDelta(bv, cv); r < -d.tol.timing {
					d.fail(k, bv, cv, fmt.Sprintf("%.0f%% slower > %.0f%% tolerance", -100*r, 100*d.tol.timing))
				}
			}
		}
	}
	if bv, ok := num(base, "p95_decision_ms"); ok {
		if cv, ok := num(cur, "p95_decision_ms"); ok {
			d.slower("p95_decision_ms", bv, cv)
		}
	}
	for _, k := range []string{"machines", "shards", "ticks", "intervals", "decisions"} {
		if bv, ok := num(base, k); ok {
			if cv, ok := num(cur, k); ok {
				d.drifted(k, bv, cv, d.tol.counter)
			}
		}
	}
	for _, k := range []string{"completed", "bad_caught"} {
		if bw, ok := base[k].(bool); ok {
			if cw, ok := cur[k].(bool); ok && bw && !cw {
				d.fail(k, 1, 0, "campaign verdict flipped to false")
			}
		}
	}
	if bv, ok := num(base, "wall_seconds"); ok {
		if cv, ok := num(cur, "wall_seconds"); ok {
			if r := relDelta(bv, cv); r > d.tol.timing {
				d.warn("wall_seconds %.1fs -> %.1fs (%.0f%% slower; warn-only)", bv, cv, 100*r)
			}
		}
	}
}

// diffCtrlplaneChurn compares ctrlplane-churn-bench/v1 files: per-arm
// completion rates as one-sided gates at the metric tolerance — they are
// deterministic campaign outcomes, not wall-clock, so a drop beyond -mtol
// is a regression however coarse -tol is set, while gains never flag —
// per-arm liveness
// counts (leaves, joins, catch-up flashes, stale quarantines, gate
// deferrals) deterministic at the counter tolerance, the p95 decision
// latency one-sided upward, campaign verdicts (good_completed,
// bad_caught) that flipped to false always regressions, wall clock
// warn-only.
func (d *differ) diffCtrlplaneChurn(base, cur map[string]any) {
	index := func(doc map[string]any) map[string]any {
		out := map[string]any{}
		arr, _ := doc["arms"].([]any)
		for _, e := range arr {
			if m, ok := e.(map[string]any); ok {
				if key, ok := m["key"].(string); ok {
					out[key] = m
				}
			}
		}
		return out
	}
	bi, ci := index(base), index(cur)
	for _, key := range d.bothAndOnly("arm", bi, ci) {
		bm, cm := submap(bi, key), submap(ci, key)
		if bv, ok := num(bm, "completion_rate"); ok {
			if cv, ok := num(cm, "completion_rate"); ok {
				if r := relDelta(bv, cv); r < -d.tol.metric {
					d.fail(key+".completion_rate", bv, cv,
						fmt.Sprintf("%.4g%% lower > %.4g%% tolerance", -100*r, 100*d.tol.metric))
				}
			}
		}
		for _, k := range []string{"leaves", "joins", "catch_up_flashes", "stale_quarantines", "gate_deferrals"} {
			if bv, ok := num(bm, k); ok {
				if cv, ok := num(cm, k); ok {
					d.drifted(key+"."+k, bv, cv, d.tol.counter)
				}
			}
		}
	}
	if bv, ok := num(base, "machines"); ok {
		if cv, ok := num(cur, "machines"); ok {
			d.drifted("machines", bv, cv, d.tol.counter)
		}
	}
	if bv, ok := num(base, "p95_decision_ms"); ok {
		if cv, ok := num(cur, "p95_decision_ms"); ok {
			d.slower("p95_decision_ms", bv, cv)
		}
	}
	for _, k := range []string{"good_completed", "bad_caught"} {
		if bw, ok := base[k].(bool); ok {
			if cw, ok := cur[k].(bool); ok && bw && !cw {
				d.fail(k, 1, 0, "campaign verdict flipped to false")
			}
		}
	}
	if bv, ok := num(base, "wall_seconds"); ok {
		if cv, ok := num(cur, "wall_seconds"); ok {
			if r := relDelta(bv, cv); r > d.tol.timing {
				d.warn("wall_seconds %.1fs -> %.1fs (%.0f%% slower; warn-only)", bv, cv, 100*r)
			}
		}
	}
}

// diffManifest compares run manifests: counter deltas at the counter
// tolerance (minus skip globs), histogram sample counts likewise,
// histogram percentiles at the timing tolerance, wall clock warn-only.
func (d *differ) diffManifest(base, cur map[string]any) {
	bc, cc := submap(base, "counters"), submap(cur, "counters")
	for _, k := range d.bothAndOnly("counter", filterSkipped(bc, d), filterSkipped(cc, d)) {
		bv, _ := num(bc, k)
		cv, _ := num(cc, k)
		d.drifted("counters."+k, bv, cv, d.tol.counter)
	}
	bh, ch := submap(base, "histograms"), submap(cur, "histograms")
	for _, name := range d.bothAndOnly("histogram", filterSkipped(bh, d), filterSkipped(ch, d)) {
		bm, cm := submap(bh, name), submap(ch, name)
		if bv, ok := num(bm, "count"); ok {
			if cv, ok := num(cm, "count"); ok {
				d.drifted("histograms."+name+".count", bv, cv, d.tol.counter)
			}
		}
		for _, k := range []string{"p50_ms", "p95_ms", "p99_ms"} {
			if bv, ok := num(bm, k); ok {
				if cv, ok := num(cm, k); ok {
					d.slower("histograms."+name+"."+k, bv, cv)
				}
			}
		}
	}
	if bv, ok := num(base, "wall_seconds"); ok {
		if cv, ok := num(cur, "wall_seconds"); ok {
			if r := relDelta(bv, cv); r > d.tol.timing {
				d.warn("wall_seconds %.1fs -> %.1fs (%.0f%% slower; warn-only)", bv, cv, 100*r)
			}
		}
	}
}

// filterSkipped drops skip-glob keys from a map copy.
func filterSkipped(m map[string]any, d *differ) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		if !d.skipped(k) {
			out[k] = v
		}
	}
	return out
}

// diffResults compares results files: per-experiment metrics at the
// metric tolerance (the experiment outputs themselves — drift means the
// science changed), per-experiment seconds warn-only at the timing
// tolerance.
func (d *differ) diffResults(base, cur map[string]any) {
	index := func(doc map[string]any) map[string]any {
		out := map[string]any{}
		arr, _ := doc["results"].([]any)
		for _, e := range arr {
			if m, ok := e.(map[string]any); ok {
				if name, ok := m["name"].(string); ok {
					out[name] = m
				}
			}
		}
		return out
	}
	bi, ci := index(base), index(cur)
	for _, name := range d.bothAndOnly("experiment", bi, ci) {
		bm, cm := submap(bi, name), submap(ci, name)
		bmet, cmet := submap(bm, "metrics"), submap(cm, "metrics")
		for _, k := range d.bothAndOnly("metric "+name, bmet, cmet) {
			bv, _ := num(bmet, k)
			cv, _ := num(cmet, k)
			d.drifted(name+"."+k, bv, cv, d.tol.metric)
		}
		if bv, ok := num(bm, "seconds"); ok {
			if cv, ok := num(cm, "seconds"); ok {
				if r := relDelta(bv, cv); r > d.tol.timing {
					d.warn("%s.seconds %.2fs -> %.2fs (%.0f%% slower; warn-only)", name, bv, cv, 100*r)
				}
			}
		}
	}
}
