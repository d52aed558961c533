package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchKeysInSortedOrder: the control-plane and surrogate bench types
// declare their fields in sorted JSON-key order, the order the map-based
// writers they replaced emitted, so the BENCH files keep their bytes.
func TestBenchKeysInSortedOrder(t *testing.T) {
	for _, v := range []any{CtrlplaneBench{}, CtrlplaneChurnBench{Arms: []ChurnBenchArm{{}}}, SurrogateBench{}} {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		var generic any
		if err := json.Unmarshal(b, &generic); err != nil {
			t.Fatal(err)
		}
		sorted, _ := json.MarshalIndent(generic, "", "  ")
		if string(b) != string(sorted) {
			t.Errorf("%T keys are not in sorted order:\n%s", v, b)
		}
	}
}

// TestDetectCommittedArtifacts: every committed BENCH file is detected as
// its schema, and the untagged frontier files as none.
func TestDetectCommittedArtifacts(t *testing.T) {
	for file, want := range map[string]string{
		"BENCH_uarch.json":              "uarch-bench",
		"BENCH_surrogate.json":          "surrogate-bench",
		"BENCH_ctrlplane.json":          "ctrlplane-bench",
		"BENCH_ctrlplane_churn.json":    "ctrlplane-churn-bench",
		"BENCH_paperbench_results.json": "results",
		"BENCH_paperbench.json":         "manifest",
		"BENCH_guardrail_sweep.json":    "",
		"BENCH_fleet_rollout.json":      "",
	} {
		b, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		got := ""
		if s := Detect(doc); s != nil {
			got = s.Name
		}
		if got != want {
			t.Errorf("%s detected as %q, want %q", file, got, want)
		}
	}
}

// TestParseGateRejectsUnknownWords: a misspelt gate word fails loudly at
// declaration, not silently as an ungated key.
func TestParseGateRejectsUnknownWords(t *testing.T) {
	if g := parseGate("higher,mtol,warn,since=v3"); g.Kind != Higher || !g.MTol || !g.Warn || g.since != 3 {
		t.Fatalf("parsed %+v", g)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown gate word accepted")
		}
	}()
	parseGate("lowr")
}
