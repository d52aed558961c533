package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// Baselines for the per-key gate table: every gated key carries a value
// well away from zero, so relative moves in either direction are
// meaningful.
const (
	gateUarch = `{"schema":"uarch-bench/v1","benchmarks":{
		"A":{"iterations":5,"ns_per_op":1000,"instructions_per_sec":1e6,"ns_per_instr":10,"bytes_per_op":40,"allocs_per_op":10}}}`
	gateSurrogate = `{"schema":"surrogate-bench/v2","traces":8,"deploys":8,
		"exact_ns_per_deploy":1000,"exact_repeat_ns_per_deploy":500,
		"surrogate_ns_per_deploy":100,"surrogate_repeat_ns_per_deploy":50,
		"speedup":10,"repeat_speedup":10,"err_p50":0.01,"err_p95":0.02,"err_max":0.04,
		"pred_agreement":0.99,"samples":400,"backend":"forest","budget":0.05,"within_budget":true}`
	gateCtrlplane = `{"schema":"ctrlplane-bench/v1","machines":10000,"shards":8,
		"ticks":30,"intervals":500000,"decisions":500010,"wall_seconds":5,
		"machines_per_sec":4000,"decisions_per_sec":200000,"p95_decision_ms":0.5,
		"completed":true,"bad_caught":true}`
	gateChurn = `{"schema":"ctrlplane-churn-bench/v1","machines":2000,
		"arms":[{"key":"churn05-lease2","churn_rate":0.05,"lease_ticks":2,"completed":true,
		 "completion_rate":0.97,"leaves":40,"joins":60,"catch_up_flashes":35,
		 "stale_quarantines":12,"gate_deferrals":20}],
		"good_completed":true,"bad_caught":true,"wall_seconds":8,"p95_decision_ms":0.4}`
	gateResults = `{"tool":"paperbench","results":[
		{"name":"table3","seconds":5,"metrics":{"pgos.00":0.95}}]}`
	gateManifest = `{"tool":"paperbench","seed":1,"workers":1,"gomaxprocs":1,"wall_seconds":10,
		"counters":{"core.deployments":50},
		"histograms":{"uarch.execute.batch":{"count":100,"mean_ms":1,"p50_ms":1,"p95_ms":2,"p99_ms":3,"max_ms":4}}}`
)

// setPath returns doc with the value at path replaced by v. Path elements
// name object keys; an array is indexed by its elements' "key" or "name".
func setPath(t *testing.T, doc string, path []string, v any) string {
	t.Helper()
	var root any
	if err := json.Unmarshal([]byte(doc), &root); err != nil {
		t.Fatal(err)
	}
	node := root
	for i, p := range path {
		last := i == len(path)-1
		switch n := node.(type) {
		case map[string]any:
			if last {
				n[p] = v
			} else {
				node = n[p]
			}
		case []any:
			for _, e := range n {
				if m, _ := e.(map[string]any); m != nil && (m["key"] == p || m["name"] == p) {
					node = m
				}
			}
		}
	}
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// getNum reads the number at path in doc.
func getNum(t *testing.T, doc string, path []string) float64 {
	t.Helper()
	var root any
	if err := json.Unmarshal([]byte(doc), &root); err != nil {
		t.Fatal(err)
	}
	node := root
	for _, p := range path {
		switch n := node.(type) {
		case map[string]any:
			node = n[p]
		case []any:
			for _, e := range n {
				if m, _ := e.(map[string]any); m != nil && (m["key"] == p || m["name"] == p) {
					node = m
				}
			}
		}
	}
	f, ok := node.(float64)
	if !ok {
		t.Fatalf("%v is not a number in %s", path, doc)
	}
	return f
}

// TestEveryGatedKey pins each gated key of each schema: a move past its
// tolerance in the bad direction exits 1 and names the key; a move in the
// good direction, or within tolerance, exits 0. Warn-only keys exit 0
// even when they move far in the bad direction.
func TestEveryGatedKey(t *testing.T) {
	type gateCase struct {
		doc   string
		path  []string
		label string // what the finding must name
		kind  string
	}
	var cases []gateCase
	add := func(doc, kind string, paths ...[]string) {
		for _, p := range paths {
			label := strings.Join(p, ".")
			switch {
			case doc == gateUarch || doc == gateChurn && len(p) > 1:
				label = strings.Join(p[1:], ".") // benchmark or arm key, then field
			case doc == gateResults:
				label = p[1] + "." + p[len(p)-1] // experiment, then metric or seconds
			}
			cases = append(cases, gateCase{doc, p, label, kind})
		}
	}
	add(gateUarch, "lower", []string{"benchmarks", "A", "ns_per_op"}, []string{"benchmarks", "A", "ns_per_instr"})
	add(gateUarch, "count", []string{"benchmarks", "A", "allocs_per_op"}, []string{"benchmarks", "A", "bytes_per_op"})
	add(gateSurrogate, "lower", []string{"exact_ns_per_deploy"}, []string{"exact_repeat_ns_per_deploy"},
		[]string{"surrogate_ns_per_deploy"}, []string{"surrogate_repeat_ns_per_deploy"},
		[]string{"err_p95"}, []string{"err_max"})
	add(gateSurrogate, "verdict", []string{"within_budget"})
	add(gateSurrogate, "warn-higher", []string{"pred_agreement"})
	add(gateCtrlplane, "higher", []string{"machines_per_sec"}, []string{"decisions_per_sec"})
	add(gateCtrlplane, "lower", []string{"p95_decision_ms"})
	add(gateCtrlplane, "count", []string{"machines"}, []string{"shards"}, []string{"ticks"},
		[]string{"intervals"}, []string{"decisions"})
	add(gateCtrlplane, "verdict", []string{"completed"}, []string{"bad_caught"})
	add(gateCtrlplane, "warn-lower", []string{"wall_seconds"})
	add(gateChurn, "higher-mtol", []string{"arms", "churn05-lease2", "completion_rate"})
	add(gateChurn, "count", []string{"arms", "churn05-lease2", "leaves"}, []string{"arms", "churn05-lease2", "joins"},
		[]string{"arms", "churn05-lease2", "catch_up_flashes"}, []string{"arms", "churn05-lease2", "stale_quarantines"},
		[]string{"arms", "churn05-lease2", "gate_deferrals"}, []string{"machines"})
	add(gateChurn, "lower", []string{"p95_decision_ms"})
	add(gateChurn, "verdict", []string{"good_completed"}, []string{"bad_caught"})
	add(gateChurn, "warn-lower", []string{"wall_seconds"})
	add(gateResults, "metric", []string{"results", "table3", "metrics", "pgos.00"})
	add(gateResults, "warn-lower", []string{"results", "table3", "seconds"})
	add(gateManifest, "count", []string{"counters", "core.deployments"},
		[]string{"histograms", "uarch.execute.batch", "count"})
	add(gateManifest, "lower", []string{"histograms", "uarch.execute.batch", "p50_ms"},
		[]string{"histograms", "uarch.execute.batch", "p95_ms"}, []string{"histograms", "uarch.execute.batch", "p99_ms"})
	add(gateManifest, "warn-lower", []string{"wall_seconds"})

	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			base := writeDoc(t, "base.json", c.doc)
			// check diffs base against the document with the key set to v
			// and wants the exit status; a regression must name the key.
			check := func(what string, v any, want int, args ...string) {
				t.Helper()
				cur := writeDoc(t, "cur.json", setPath(t, c.doc, c.path, v))
				code, out := diff(t, append(args, base, cur)...)
				if code != want || want == 1 && !strings.Contains(out, c.label) {
					t.Errorf("%s (%v): exit %d, want %d naming %s:\n%s", what, v, code, want, c.label, out)
				}
			}
			if c.kind == "verdict" {
				check("flip to false", false, 1)
				falseBase := writeDoc(t, "false.json", setPath(t, c.doc, c.path, false))
				cur := writeDoc(t, "true.json", c.doc)
				if code, out := diff(t, falseBase, cur); code != 0 {
					t.Errorf("flip to true: exit %d:\n%s", code, out)
				}
				return
			}
			v := getNum(t, c.doc, c.path)
			switch c.kind {
			case "lower":
				check("slower", 2*v, 1, "-tol", "0.5")
				check("faster", v/2, 0, "-tol", "0.5")
				check("within", 1.4*v, 0, "-tol", "0.5")
			case "higher":
				check("lower", v/4, 1, "-tol", "0.5")
				check("higher", 2*v, 0, "-tol", "0.5")
				check("within", 0.7*v, 0, "-tol", "0.5")
			case "higher-mtol":
				// Gated at -mtol, so a small drop fails even under -tol 1.0.
				check("lower", 0.98*v, 1, "-tol", "1.0")
				check("higher", 1.02*v, 0, "-tol", "1.0")
				check("within", 0.99*v, 0, "-tol", "1.0", "-mtol", "0.05")
			case "count":
				check("up", v+1, 1)
				check("down", v-1, 1)
				check("within", v+1, 0, "-ctol", "0.5")
			case "metric":
				check("up", 1.01*v, 1)
				check("down", 0.99*v, 1)
				check("within", v*(1+1e-9), 0)
			case "warn-lower", "warn-higher":
				bad := 10 * v
				if c.kind == "warn-higher" {
					bad = v / 2
				}
				cur := writeDoc(t, "cur.json", setPath(t, c.doc, c.path, bad))
				code, out := diff(t, "-tol", "0.5", base, cur)
				if code != 0 || !strings.Contains(out, "WARN") || !strings.Contains(out, c.path[len(c.path)-1]) {
					t.Errorf("warn-only key: exit %d, want 0 with a warning:\n%s", code, out)
				}
			default:
				t.Fatalf("unknown kind %q", c.kind)
			}
		})
	}
	if len(cases) < 40 {
		t.Errorf("%d gated keys pinned, want at least 40", len(cases))
	}
}

// TestSkipGlobsCoverCountersAndHistograms: -skip globs drop counter keys
// and histogram names alike, so neither drifting counts nor slower
// percentiles under a skipped name fail.
func TestSkipGlobsCoverCountersAndHistograms(t *testing.T) {
	base := writeDoc(t, "base.json", gateManifest)
	doc := setPath(t, gateManifest, []string{"counters", "core.deployments"}, 99)
	doc = setPath(t, doc, []string{"histograms", "uarch.execute.batch", "p95_ms"}, 200)
	doc = setPath(t, doc, []string{"histograms", "uarch.execute.batch", "count"}, 1)
	cur := writeDoc(t, "cur.json", doc)
	if code, out := diff(t, base, cur); code != 1 {
		t.Fatalf("unskipped drift: exit %d, want 1:\n%s", code, out)
	}
	if code, out := diff(t, "-skip", "core.*,uarch.*", base, cur); code != 0 {
		t.Fatalf("skipped counter and histogram: exit %d, want 0:\n%s", code, out)
	}
}

// TestSurrogateV1BaselineAgainstV2Clean: a v1 surrogate baseline, which
// predates the repeat timings, diffs against a v2 file with no finding.
func TestSurrogateV1BaselineAgainstV2Clean(t *testing.T) {
	var v1 map[string]any
	if err := json.Unmarshal([]byte(gateSurrogate), &v1); err != nil {
		t.Fatal(err)
	}
	v1["schema"] = "surrogate-bench/v1"
	for _, k := range []string{"exact_repeat_ns_per_deploy", "surrogate_repeat_ns_per_deploy", "repeat_speedup"} {
		delete(v1, k)
	}
	b, _ := json.Marshal(v1)
	base := writeDoc(t, "v1.json", string(b))
	cur := writeDoc(t, "v2.json", gateSurrogate)
	code, out := diff(t, base, cur)
	if code != 0 || strings.Contains(out, "WARN") {
		t.Fatalf("v1 baseline against v2: exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "0 regression(s), 0 warning(s)") {
		t.Fatalf("want a clean summary:\n%s", out)
	}
}
