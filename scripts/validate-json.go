//go:build ignore

// validate-json checks that each argument parses as a JSON document and,
// where the file's shape identifies a known schema, validates that schema.
// Used by check.sh to gate the artifacts emitted by the observability
// layer; run it as
//
//	go run scripts/validate-json.go FILE...
//
// These shapes are recognised:
//
//   - *.jsonl — an event log: every line must be a JSON object carrying
//     the required scope/t/kind fields, and lines must be sorted by
//     (scope, t, kind) — the determinism contract obs.EventLog.WriteJSONL
//     promises.
//   - a JSON object with a "traceEvents" array — a Chrome trace: every
//     event needs name/ph/pid/tid, "X" events need ts and non-negative
//     dur.
//   - a JSON object with a "gomaxprocs" field — a run manifest: wall
//     clock, integer counters, and a positive peak_rss_mb unless the
//     platform could not report one (then the field is absent).
//   - the benchmark artifacts that carry a "schema" tag.
//   - anything else — plain JSON well-formedness, as before.
//
// It exits nonzero on the first unreadable or malformed file and prints a
// one-line summary per valid file as a sanity signal.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: validate-json FILE...")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := validate(path); err != nil {
			fmt.Fprintf(os.Stderr, "validate-json: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}

func validate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".jsonl") {
		return validateEventLog(path, data)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	switch v := doc.(type) {
	case map[string]any:
		if events, ok := v["traceEvents"].([]any); ok {
			return validateChromeTrace(path, events)
		}
		if s, ok := v["schema"].(string); ok && strings.HasPrefix(s, "surrogate-bench/") {
			return validateSurrogateBench(path, v)
		}
		if s, ok := v["schema"].(string); ok && strings.HasPrefix(s, "ctrlplane-churn-bench/") {
			return validateCtrlplaneChurnBench(path, v)
		}
		if s, ok := v["schema"].(string); ok && strings.HasPrefix(s, "ctrlplane-bench/") {
			return validateCtrlplaneBench(path, v)
		}
		if _, ok := v["gomaxprocs"]; ok {
			return validateRunManifest(path, v)
		}
		fmt.Printf("%s: valid JSON object, %d top-level keys\n", path, len(v))
	case []any:
		fmt.Printf("%s: valid JSON array, %d elements\n", path, len(v))
	default:
		fmt.Printf("%s: valid JSON\n", path)
	}
	return nil
}

// validateEventLog checks an obs event log: JSONL, required fields, and
// deterministic (scope, t, kind) ordering.
func validateEventLog(path string, data []byte) error {
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var prevScope, prevKind string
	var prevT float64
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		n++
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		scope, _ := ev["scope"].(string)
		kind, _ := ev["kind"].(string)
		t, tok := ev["t"].(float64)
		if scope == "" || kind == "" || !tok {
			return fmt.Errorf("line %d: event missing scope/t/kind: %s", n, line)
		}
		if n > 1 {
			if scope < prevScope ||
				(scope == prevScope && t < prevT) ||
				(scope == prevScope && t == prevT && kind < prevKind) {
				return fmt.Errorf("line %d: events not sorted by (scope, t, kind)", n)
			}
		}
		prevScope, prevT, prevKind = scope, t, kind
	}
	if err := sc.Err(); err != nil {
		return err
	}
	fmt.Printf("%s: valid event log, %d events, deterministically ordered\n", path, n)
	return nil
}

// validateRunManifest checks an obs run manifest (paperbench -manifest):
// the wall clock must be present and finite, every counter an integer,
// and the process's peak resident set size positive — or absent, which is
// how a manifest says the platform could not report it.
func validateRunManifest(path string, v map[string]any) error {
	for _, k := range []string{"wall_seconds", "gomaxprocs"} {
		n, ok := v[k].(float64)
		if !ok {
			return fmt.Errorf("missing or non-numeric field %q", k)
		}
		if n != n || n < 0 || n > 1e15 {
			return fmt.Errorf("field %q is negative, NaN or unbounded: %v", k, n)
		}
	}
	rss := "unavailable"
	if r, present := v["peak_rss_mb"]; present {
		n, ok := r.(float64)
		if !ok || n <= 0 || n > 1e9 {
			return fmt.Errorf("peak_rss_mb is %v, want a positive MiB figure or no field", r)
		}
		rss = fmt.Sprintf("%.0f MiB", n)
	}
	counters, _ := v["counters"].(map[string]any)
	for name, c := range counters {
		if n, ok := c.(float64); !ok || n != float64(int64(n)) {
			return fmt.Errorf("counter %q is not an integer: %v", name, c)
		}
	}
	fmt.Printf("%s: valid run manifest, %d counters, peak RSS %s\n", path, len(counters), rss)
	return nil
}

// validateSurrogateBench checks the BENCH_surrogate.json artifact: every
// numeric field the obsdiff gate reads must be present and finite, and
// the within_budget verdict must be a bool.
func validateSurrogateBench(path string, v map[string]any) error {
	numeric := []string{
		"traces", "deploys",
		"exact_ns_per_deploy", "surrogate_ns_per_deploy", "speedup",
		"exact_repeat_ns_per_deploy", "surrogate_repeat_ns_per_deploy", "repeat_speedup",
		"err_p50", "err_p95", "err_max", "pred_agreement",
		"samples", "budget",
	}
	for _, k := range numeric {
		n, ok := v[k].(float64)
		if !ok {
			return fmt.Errorf("missing or non-numeric field %q", k)
		}
		if n != n || n < 0 {
			return fmt.Errorf("field %q is negative or NaN: %v", k, n)
		}
	}
	if _, ok := v["backend"].(string); !ok {
		return fmt.Errorf("missing backend")
	}
	if _, ok := v["within_budget"].(bool); !ok {
		return fmt.Errorf("missing or non-bool within_budget")
	}
	fmt.Printf("%s: valid surrogate bench, %.0fx speedup (%.0fx on repeats), p95 err %.4f\n",
		path, v["speedup"].(float64), v["repeat_speedup"].(float64), v["err_p95"].(float64))
	return nil
}

// validateCtrlplaneBench checks the BENCH_ctrlplane.json artifact: every
// numeric field the obsdiff gate reads must be present and finite, and
// the campaign verdicts must be bools.
func validateCtrlplaneBench(path string, v map[string]any) error {
	numeric := []string{
		"machines", "shards", "ticks", "intervals", "decisions",
		"wall_seconds", "machines_per_sec", "decisions_per_sec",
		"p95_decision_ms",
	}
	for _, k := range numeric {
		n, ok := v[k].(float64)
		if !ok {
			return fmt.Errorf("missing or non-numeric field %q", k)
		}
		if n != n || n < 0 {
			return fmt.Errorf("field %q is negative or NaN: %v", k, n)
		}
	}
	for _, k := range []string{"completed", "bad_caught"} {
		if _, ok := v[k].(bool); !ok {
			return fmt.Errorf("missing or non-bool %s", k)
		}
	}
	fmt.Printf("%s: valid ctrlplane bench, %.0f machines/s, %.0f decisions/s, p95 %.3fms\n",
		path, v["machines_per_sec"].(float64), v["decisions_per_sec"].(float64),
		v["p95_decision_ms"].(float64))
	return nil
}

// validateCtrlplaneChurnBench checks the BENCH_ctrlplane_churn.json
// artifact: every arm must carry the fields the obsdiff gate reads, with
// completion rates in [0, 1], and the campaign verdicts must be bools.
func validateCtrlplaneChurnBench(path string, v map[string]any) error {
	for _, k := range []string{"machines", "wall_seconds", "p95_decision_ms"} {
		n, ok := v[k].(float64)
		if !ok {
			return fmt.Errorf("missing or non-numeric field %q", k)
		}
		if n != n || n < 0 {
			return fmt.Errorf("field %q is negative or NaN: %v", k, n)
		}
	}
	for _, k := range []string{"good_completed", "bad_caught"} {
		if _, ok := v[k].(bool); !ok {
			return fmt.Errorf("missing or non-bool %s", k)
		}
	}
	arms, ok := v["arms"].([]any)
	if !ok || len(arms) == 0 {
		return fmt.Errorf("missing or empty arms array")
	}
	for i, a := range arms {
		arm, ok := a.(map[string]any)
		if !ok {
			return fmt.Errorf("arms[%d]: not an object", i)
		}
		if _, ok := arm["key"].(string); !ok {
			return fmt.Errorf("arms[%d]: missing key", i)
		}
		if _, ok := arm["completed"].(bool); !ok {
			return fmt.Errorf("arms[%d]: missing or non-bool completed", i)
		}
		numeric := []string{
			"churn_rate", "lease_ticks", "completion_rate",
			"leaves", "joins", "catch_up_flashes", "stale_quarantines", "gate_deferrals",
		}
		for _, k := range numeric {
			n, ok := arm[k].(float64)
			if !ok {
				return fmt.Errorf("arms[%d]: missing or non-numeric field %q", i, k)
			}
			if n != n || n < 0 {
				return fmt.Errorf("arms[%d]: field %q is negative or NaN: %v", i, k, n)
			}
		}
		if cr := arm["completion_rate"].(float64); cr > 1 {
			return fmt.Errorf("arms[%d]: completion_rate %v > 1", i, cr)
		}
	}
	fmt.Printf("%s: valid ctrlplane churn bench, %d arms, p95 %.3fms\n",
		path, len(arms), v["p95_decision_ms"].(float64))
	return nil
}

// validateChromeTrace checks the trace-event array: metadata and complete
// events with the fields Perfetto requires.
func validateChromeTrace(path string, events []any) error {
	for i, e := range events {
		ev, ok := e.(map[string]any)
		if !ok {
			return fmt.Errorf("traceEvents[%d]: not an object", i)
		}
		if _, ok := ev["name"].(string); !ok {
			return fmt.Errorf("traceEvents[%d]: missing name", i)
		}
		ph, _ := ev["ph"].(string)
		if ph != "X" && ph != "M" {
			return fmt.Errorf("traceEvents[%d]: unexpected ph %q", i, ph)
		}
		for _, k := range []string{"pid", "tid"} {
			if _, ok := ev[k].(float64); !ok {
				return fmt.Errorf("traceEvents[%d]: missing %s", i, k)
			}
		}
		if ph == "X" {
			ts, ok := ev["ts"].(float64)
			if !ok || ts < 0 {
				return fmt.Errorf("traceEvents[%d]: X event needs non-negative ts", i)
			}
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				return fmt.Errorf("traceEvents[%d]: negative dur", i)
			}
		}
	}
	fmt.Printf("%s: valid Chrome trace, %d events\n", path, len(events))
	return nil
}
