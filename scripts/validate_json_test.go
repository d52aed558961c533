package scripts

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// The scripts in this directory are standalone programs (go run
// scripts/NAME.go), so their tests build and drive them as binaries.

// TestValidateRunManifest pins the run-manifest schema check: a positive
// peak_rss_mb passes, an absent one (a platform without getrusage) passes,
// and a present but non-positive or non-numeric one fails, as does a
// fractional counter.
func TestValidateRunManifest(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "validate-json")
	if out, err := exec.Command(goTool, "build", "-o", bin, "validate-json.go").CombinedOutput(); err != nil {
		t.Fatalf("building validate-json: %v\n%s", err, out)
	}
	const head = `{"tool":"paperbench","seed":1,"workers":1,"gomaxprocs":1,"go_version":"go1.22",` +
		`"start":"2026-01-01T00:00:00Z","end":"2026-01-01T00:00:01Z","wall_seconds":1`
	for _, tc := range []struct {
		name, fields string
		valid        bool
	}{
		{"peak", `,"peak_rss_mb":147.5,"counters":{"uarch.instructions":10}`, true},
		{"peak-unavailable", `,"counters":{"uarch.instructions":10}`, true},
		{"zero-peak", `,"peak_rss_mb":0`, false},
		{"negative-peak", `,"peak_rss_mb":-3`, false},
		{"string-peak", `,"peak_rss_mb":"147"`, false},
		{"fractional-counter", `,"peak_rss_mb":147.5,"counters":{"uarch.instructions":1.5}`, false},
	} {
		path := filepath.Join(dir, tc.name+".json")
		if err := os.WriteFile(path, []byte(head+tc.fields+"}"), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, path).CombinedOutput()
		if (err == nil) != tc.valid {
			t.Errorf("%s: valid = %v, want %v\n%s", tc.name, err == nil, tc.valid, out)
		}
	}
}

// TestValidateDeclaredSchemas runs validate-json over the committed BENCH
// file of every declared schema, which must pass, and over broken copies
// of each, which must fail: a gated key deleted, a value of the wrong JSON
// type, a negative count, a completion rate above 1, and an empty
// benchmarks map.
func TestValidateDeclaredSchemas(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "validate-json")
	if out, err := exec.Command(goTool, "build", "-o", bin, "validate-json.go").CombinedOutput(); err != nil {
		t.Fatalf("building validate-json: %v\n%s", err, out)
	}
	// first returns the first element of a collection: a map's in sorted
	// key order, or an array's.
	first := func(v any) map[string]any {
		switch c := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(c))
			for k := range c {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return c[keys[0]].(map[string]any)
		case []any:
			return c[0].(map[string]any)
		}
		t.Fatalf("%v is not a collection", v)
		return nil
	}
	type edit struct {
		name string
		fn   func(doc map[string]any)
	}
	for _, tc := range []struct {
		file  string
		edits []edit
	}{
		{"BENCH_uarch.json", []edit{
			{"deleted-ns_per_op", func(d map[string]any) { delete(first(d["benchmarks"]), "ns_per_op") }},
			{"string-ns_per_instr", func(d map[string]any) { first(d["benchmarks"])["ns_per_instr"] = "fast" }},
			{"negative-allocs", func(d map[string]any) { first(d["benchmarks"])["allocs_per_op"] = -1 }},
			{"fractional-allocs", func(d map[string]any) { first(d["benchmarks"])["allocs_per_op"] = 0.5 }},
			{"empty-benchmarks", func(d map[string]any) { d["benchmarks"] = map[string]any{} }},
		}},
		{"BENCH_surrogate.json", []edit{
			{"deleted-err_p95", func(d map[string]any) { delete(d, "err_p95") }},
			{"string-within_budget", func(d map[string]any) { d["within_budget"] = "true" }},
			{"negative-timing", func(d map[string]any) { d["exact_ns_per_deploy"] = -5 }},
			{"agreement-above-1", func(d map[string]any) { d["pred_agreement"] = 1.5 }},
		}},
		{"BENCH_ctrlplane.json", []edit{
			{"deleted-machines_per_sec", func(d map[string]any) { delete(d, "machines_per_sec") }},
			{"number-completed", func(d map[string]any) { d["completed"] = 1 }},
			{"negative-machines", func(d map[string]any) { d["machines"] = -1 }},
		}},
		{"BENCH_ctrlplane_churn.json", []edit{
			{"deleted-completion_rate", func(d map[string]any) { delete(first(d["arms"]), "completion_rate") }},
			{"string-completed", func(d map[string]any) { first(d["arms"])["completed"] = "yes" }},
			{"negative-leaves", func(d map[string]any) { first(d["arms"])["leaves"] = -3 }},
			{"completion-above-1", func(d map[string]any) { first(d["arms"])["completion_rate"] = 1.2 }},
			{"keyless-arm", func(d map[string]any) { delete(first(d["arms"]), "key") }},
			{"empty-arms", func(d map[string]any) { d["arms"] = []any{} }},
		}},
		{"BENCH_paperbench_results.json", []edit{
			{"deleted-seconds", func(d map[string]any) { delete(first(d["results"]), "seconds") }},
			{"string-metric", func(d map[string]any) {
				for _, r := range d["results"].([]any) {
					if m, ok := r.(map[string]any)["metrics"].(map[string]any); ok {
						m["x"] = "0.9"
					}
				}
			}},
			{"nameless-result", func(d map[string]any) { delete(first(d["results"]), "name") }},
			{"empty-results", func(d map[string]any) { d["results"] = []any{} }},
		}},
		{"BENCH_paperbench.json", []edit{
			{"deleted-wall_seconds", func(d map[string]any) { delete(d, "wall_seconds") }},
			{"string-counter", func(d map[string]any) { d["counters"].(map[string]any)["x"] = "10" }},
			{"negative-counter", func(d map[string]any) { d["counters"].(map[string]any)["x"] = -1 }},
			{"deleted-histogram-p95", func(d map[string]any) { delete(first(d["histograms"]), "p95_ms") }},
		}},
	} {
		raw, err := os.ReadFile(filepath.Join("..", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if out, err := exec.Command(bin, filepath.Join("..", tc.file)).CombinedOutput(); err != nil {
			t.Errorf("committed %s: %v\n%s", tc.file, err, out)
		}
		for _, e := range tc.edits {
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			e.fn(doc)
			b, _ := json.Marshal(doc)
			path := filepath.Join(dir, e.name+".json")
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if out, err := exec.Command(bin, path).CombinedOutput(); err == nil {
				t.Errorf("%s %s: accepted\n%s", tc.file, e.name, out)
			}
		}
	}
}
