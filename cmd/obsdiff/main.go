// Command obsdiff diffs two observability artifacts — run manifests
// (paperbench -manifest), results files (-results), or the BENCH files
// of the uarch, surrogate and control-plane benches — and flags
// regressions beyond tolerance. scripts/check.sh runs it against the
// checked-in BENCH baselines as the repo's performance gate.
//
// Usage:
//
//	obsdiff [-tol F] [-ctol F] [-mtol F] [-skip GLOBS] BASELINE CURRENT
//
// The two files must be the same schema. Every schema, its keys and each
// key's gate are declared once in internal/obs (see its schema.go), and
// obsdiff walks both files through the declaration in sorted key order.
// Each gated key falls in one tolerance class:
//
//   - Timing and throughput (ns_per_op, histogram percentiles,
//     machines_per_sec, err_p95, …): noisy, gated one-sided at -tol
//     relative change in the bad direction (default 0.5 = flag a >1.5×
//     slowdown; speedups never flag). A lower-or-higher key may be
//     declared at -mtol instead, as the deterministic completion_rate is.
//   - Counts (manifest counter deltas, histogram sample counts,
//     allocs_per_op, campaign volumes): deterministic for a fixed
//     configuration, gated at -ctol relative change in either direction
//     (default 0 = exact). Counter keys and histogram names matching a
//     -skip glob (default "dataset.cache.*,*.peak", which vary with cache
//     state and core count) are ignored.
//   - Result metrics (per-experiment "metrics" maps): the experiment
//     outputs themselves, gated at -mtol relative change in either
//     direction (default 1e-6); any drift means the science changed.
//   - Verdicts (completed, bad_caught, within_budget, …): a flip from
//     true to false always regresses.
//
// Warn-only keys (wall_seconds, per-experiment seconds, pred_agreement)
// warn instead of failing. Keys present in only one file are warnings,
// not regressions, so adding instrumentation never breaks the gate; a key
// newer than one file's schema version is not compared at all. Exit
// status: 0 clean (warnings allowed), 1 regression, 2 usage or schema
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path"
	"strings"

	"clustergate/internal/obs"
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
	bs, cs := obs.Detect(base), obs.Detect(cur)
	if bs != cs {
		fmt.Fprintf(stderr, "obsdiff: schema mismatch: %s is %s, %s is %s\n", fs.Arg(0), name(bs), fs.Arg(1), name(cs))
		return 2
	}
	if bs == nil {
		fmt.Fprintf(stderr, "obsdiff: unrecognised schema in %s\n", fs.Arg(0))
		return 2
	}

	d := &differ{w: stdout, tol: tol}
	bs.Walk([]map[string]any{base, cur}, d.visit)
	fmt.Fprintf(stdout, "obsdiff: %d regression(s), %d warning(s) [%s]\n", d.regressions, d.warnings, bs.Name)
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

// name reports a detected schema's name, or "unknown".
func name(s *obs.Schema) string {
	if s == nil {
		return "unknown"
	}
	return s.Name
}

// differ accumulates findings.
type differ struct {
	w           io.Writer
	tol         tolerances
	regressions int
	warnings    int
}

func (d *differ) warn(format string, args ...any) {
	d.warnings++
	fmt.Fprintf(d.w, "WARN %s\n", fmt.Sprintf(format, args...))
}

// skipped reports whether a counter key or histogram name matches a
// -skip glob.
func (d *differ) skipped(key string) bool {
	for _, g := range d.tol.skips {
		if ok, _ := path.Match(g, key); ok {
			return true
		}
	}
	return false
}

// visit is the walk's callback: a key in only one file warns, a key in
// both is gated, and only keys in both files are descended into.
func (d *differ) visit(k *obs.Key) bool {
	b, c := k.Vals[0], k.Vals[1]
	if k.Coll != "" && k.Gate.Skip && d.skipped(k.Name) {
		return false
	}
	if b == nil || c == nil {
		where := k.Label
		if k.Coll != "" {
			where = fmt.Sprintf("%s %q", k.Coll, k.Name)
		}
		if b != nil {
			d.warn("%s only in baseline", where)
		} else if c != nil {
			d.warn("%s only in current", where)
		}
		return false
	}
	d.gate(k, b, c)
	return true
}

// gate applies k's declared gate to its baseline and current values.
func (d *differ) gate(k *obs.Key, b, c any) {
	if k.Gate.Kind == obs.Verdict {
		if b == true && c == false {
			d.finding(k, b, c, "verdict flipped to false")
		}
		return
	}
	bv, bok := b.(float64)
	cv, cok := c.(float64)
	if !bok || !cok {
		return
	}
	r := relDelta(bv, cv)
	var bad, tol float64
	word := "drift"
	switch k.Gate.Kind {
	case obs.Count:
		bad, tol = math.Abs(r), d.tol.counter
	case obs.Metric:
		bad, tol = math.Abs(r), d.tol.metric
	case obs.Lower:
		bad, tol, word = r, d.tol.timing, "higher"
	case obs.Higher:
		bad, tol, word = -r, d.tol.timing, "lower"
	default:
		return
	}
	if k.Gate.MTol {
		tol = d.tol.metric
	}
	if bad > tol {
		d.finding(k, bv, cv, fmt.Sprintf("%s %.3g%% > %.3g%% tolerance", word, 100*bad, 100*tol))
	}
}

// finding reports a gate's failure: a regression, or a warning for a
// warn-only key.
func (d *differ) finding(k *obs.Key, b, c any, note string) {
	if k.Gate.Warn {
		d.warn("%s baseline %v, current %v (%s; warn-only)", k.Label, b, c, note)
		return
	}
	d.regressions++
	fmt.Fprintf(d.w, "REGRESSION %-40s baseline %v, current %v (%s)\n", k.Label, b, c, note)
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
