package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeDoc drops a JSON document into the test dir and returns its path.
func writeDoc(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// diff runs obsdiff with args and returns (exit status, combined output).
func diff(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String() + errb.String()
}

const uarchBase = `{"schema":"uarch-bench/v1","benchmarks":{
	"A":{"ns_per_op":1000,"ns_per_instr":10,"allocs_per_op":0},
	"B":{"ns_per_op":2000,"ns_per_instr":20,"allocs_per_op":3}}}`

func TestUarchClean(t *testing.T) {
	base := writeDoc(t, "base.json", uarchBase)
	cur := writeDoc(t, "cur.json", `{"schema":"uarch-bench/v1","benchmarks":{
		"A":{"ns_per_op":1100,"ns_per_instr":11,"allocs_per_op":0},
		"B":{"ns_per_op":1500,"ns_per_instr":15,"allocs_per_op":3}}}`)
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
}

func TestUarchTimingRegression(t *testing.T) {
	base := writeDoc(t, "base.json", uarchBase)
	cur := writeDoc(t, "cur.json", `{"schema":"uarch-bench/v1","benchmarks":{
		"A":{"ns_per_op":5000,"ns_per_instr":50,"allocs_per_op":0},
		"B":{"ns_per_op":2000,"ns_per_instr":20,"allocs_per_op":3}}}`)
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "A.ns_per_op") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestUarchAllocRegressionExact(t *testing.T) {
	base := writeDoc(t, "base.json", uarchBase)
	cur := writeDoc(t, "cur.json", `{"schema":"uarch-bench/v1","benchmarks":{
		"A":{"ns_per_op":1000,"ns_per_instr":10,"allocs_per_op":1},
		"B":{"ns_per_op":2000,"ns_per_instr":20,"allocs_per_op":3}}}`)
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "A.allocs_per_op") {
		t.Fatalf("alloc growth must regress: exit %d:\n%s", code, out)
	}
}

func TestUarchMissingBenchmarkWarnsOnly(t *testing.T) {
	base := writeDoc(t, "base.json", uarchBase)
	cur := writeDoc(t, "cur.json", `{"schema":"uarch-bench/v1","benchmarks":{
		"A":{"ns_per_op":1000,"ns_per_instr":10,"allocs_per_op":0},
		"C":{"ns_per_op":1,"ns_per_instr":1,"allocs_per_op":0}}}`)
	code, out := diff(t, base, cur)
	if code != 0 || !strings.Contains(out, "WARN") {
		t.Fatalf("one-sided benchmarks must warn, not fail: exit %d:\n%s", code, out)
	}
}

const manifestBase = `{"tool":"paperbench","seed":1,"wall_seconds":10,
	"counters":{"core.deployments":50,"dataset.cache.hits":7,"parallel.inflight.peak":4},
	"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1,"p95_ms":2,"p99_ms":3}}}`

func TestManifestCounterDriftFails(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":10,
		"counters":{"core.deployments":49,"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1,"p95_ms":2,"p99_ms":3}}}`)
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "counters.core.deployments") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestManifestSkipGlobs(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	// Cache hits and pool peak change; both match default skip globs.
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":12,
		"counters":{"core.deployments":50,"dataset.cache.hits":0,"parallel.inflight.peak":1},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1.2,"p95_ms":2.1,"p99_ms":3}}}`)
	code, out := diff(t, base, cur)
	if code != 0 {
		t.Fatalf("skip-glob keys must not fail: exit %d:\n%s", code, out)
	}
}

func TestManifestHistogramPercentileRegression(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":10,
		"counters":{"core.deployments":50,"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":9,"p95_ms":2,"p99_ms":3}}}`)
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "uarch.execute.batch.p50_ms") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	// A faster percentile never regresses.
	cur2 := writeDoc(t, "cur2.json", `{"tool":"paperbench","seed":1,"wall_seconds":10,
		"counters":{"core.deployments":50,"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":0.1,"p95_ms":0.2,"p99_ms":0.3}}}`)
	if code, out := diff(t, base, cur2); code != 0 {
		t.Fatalf("speedup flagged: exit %d:\n%s", code, out)
	}
}

func TestManifestWallSecondsWarnOnly(t *testing.T) {
	base := writeDoc(t, "base.json", manifestBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","seed":1,"wall_seconds":100,
		"counters":{"core.deployments":50,"dataset.cache.hits":7,"parallel.inflight.peak":4},
		"histograms":{"uarch.execute.batch":{"count":100,"p50_ms":1,"p95_ms":2,"p99_ms":3}}}`)
	code, out := diff(t, base, cur)
	if code != 0 || !strings.Contains(out, "wall_seconds") {
		t.Fatalf("wall_seconds must warn, not fail: exit %d:\n%s", code, out)
	}
}

const ctrlplaneBase = `{"schema":"ctrlplane-bench/v1","machines":10000,"shards":8,
	"ticks":30,"intervals":500000,"decisions":500010,"wall_seconds":5,
	"machines_per_sec":4000,"decisions_per_sec":200000,"p95_decision_ms":0.5,
	"completed":true,"bad_caught":true}`

// TestSurrogateRepeatTimingGated: a v2 surrogate bench gates its repeat
// timings like its first-deployment ones, and a v1 baseline, which has no
// repeat timings, still diffs against a v2 file.
func TestSurrogateRepeatTimingGated(t *testing.T) {
	const v2 = `{"schema":"surrogate-bench/v2","exact_ns_per_deploy":1000,"surrogate_ns_per_deploy":100,
		"exact_repeat_ns_per_deploy":%d,"surrogate_repeat_ns_per_deploy":%d,"err_p95":0.01,"err_max":0.02,"within_budget":true}`
	base := writeDoc(t, "base.json", fmt.Sprintf(v2, 50, 10))
	for _, c := range []struct {
		exact, sur int
		key        string
	}{{200, 10, "exact_repeat_ns_per_deploy"}, {50, 40, "surrogate_repeat_ns_per_deploy"}} {
		cur := writeDoc(t, "cur.json", fmt.Sprintf(v2, c.exact, c.sur))
		if code, out := diff(t, "-tol", "1.0", base, cur); code != 1 || !strings.Contains(out, c.key) {
			t.Fatalf("slower %s must regress: exit %d:\n%s", c.key, code, out)
		}
	}
	v1 := writeDoc(t, "v1.json", `{"schema":"surrogate-bench/v1","exact_ns_per_deploy":1000,"surrogate_ns_per_deploy":100,
		"err_p95":0.01,"err_max":0.02,"within_budget":true}`)
	if code, out := diff(t, v1, base); code != 0 {
		t.Fatalf("v1 baseline against v2: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneThroughputDropFails(t *testing.T) {
	base := writeDoc(t, "base.json", ctrlplaneBase)
	cur := writeDoc(t, "cur.json", `{"schema":"ctrlplane-bench/v1","machines":10000,"shards":8,
		"ticks":30,"intervals":500000,"decisions":500010,"wall_seconds":20,
		"machines_per_sec":1000,"decisions_per_sec":50000,"p95_decision_ms":0.5,
		"completed":true,"bad_caught":true}`)
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "machines_per_sec") || !strings.Contains(out, "decisions_per_sec") {
		t.Fatalf("throughput drop must regress: exit %d:\n%s", code, out)
	}
	// Faster is never a regression: quadruple throughput, clean exit.
	cur2 := writeDoc(t, "cur2.json", `{"schema":"ctrlplane-bench/v1","machines":10000,"shards":8,
		"ticks":30,"intervals":500000,"decisions":500010,"wall_seconds":1,
		"machines_per_sec":16000,"decisions_per_sec":800000,"p95_decision_ms":0.1,
		"completed":true,"bad_caught":true}`)
	if code, out := diff(t, "-tol", "0.5", base, cur2); code != 0 {
		t.Fatalf("speedup flagged: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneLatencyAndVolumeGates(t *testing.T) {
	base := writeDoc(t, "base.json", ctrlplaneBase)
	// p95 decision latency blowing past the timing tolerance fails.
	cur := writeDoc(t, "cur.json", `{"schema":"ctrlplane-bench/v1","machines":10000,"shards":8,
		"ticks":30,"intervals":500000,"decisions":500010,"wall_seconds":5,
		"machines_per_sec":4000,"decisions_per_sec":200000,"p95_decision_ms":5,
		"completed":true,"bad_caught":true}`)
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "p95_decision_ms") {
		t.Fatalf("latency growth must regress: exit %d:\n%s", code, out)
	}
	// Deterministic volume fields drifting fails at the counter tolerance.
	cur2 := writeDoc(t, "cur2.json", `{"schema":"ctrlplane-bench/v1","machines":10000,"shards":8,
		"ticks":30,"intervals":499000,"decisions":500010,"wall_seconds":5,
		"machines_per_sec":4000,"decisions_per_sec":200000,"p95_decision_ms":0.5,
		"completed":true,"bad_caught":true}`)
	if code, out := diff(t, base, cur2); code != 1 || !strings.Contains(out, "intervals") {
		t.Fatalf("interval drift must regress: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneVerdictFlipFails(t *testing.T) {
	base := writeDoc(t, "base.json", ctrlplaneBase)
	cur := writeDoc(t, "cur.json", `{"schema":"ctrlplane-bench/v1","machines":10000,"shards":8,
		"ticks":30,"intervals":500000,"decisions":500010,"wall_seconds":5,
		"machines_per_sec":4000,"decisions_per_sec":200000,"p95_decision_ms":0.5,
		"completed":true,"bad_caught":false}`)
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "bad_caught") {
		t.Fatalf("bad_caught flip must regress: exit %d:\n%s", code, out)
	}
}

const churnBase = `{"schema":"ctrlplane-churn-bench/v1","machines":2000,
	"arms":[
		{"key":"churn05-lease2","churn_rate":0.05,"lease_ticks":2,"completed":true,
		 "completion_rate":0.97,"leaves":40,"joins":60,"catch_up_flashes":35,
		 "stale_quarantines":12,"gate_deferrals":2},
		{"key":"churn10-lease4","churn_rate":0.10,"lease_ticks":4,"completed":true,
		 "completion_rate":0.95,"leaves":80,"joins":120,"catch_up_flashes":70,
		 "stale_quarantines":5,"gate_deferrals":1}],
	"good_completed":true,"bad_caught":true,"wall_seconds":8,"p95_decision_ms":0.4}`

func TestCtrlplaneChurnCompletionDropFails(t *testing.T) {
	base := writeDoc(t, "base.json", churnBase)
	cur := writeDoc(t, "cur.json", strings.Replace(churnBase, `"completion_rate":0.97`, `"completion_rate":0.40`, 1))
	code, out := diff(t, "-tol", "0.5", base, cur)
	if code != 1 || !strings.Contains(out, "churn05-lease2.completion_rate") {
		t.Fatalf("completion-rate drop must regress: exit %d:\n%s", code, out)
	}
	// Completion is a deterministic outcome gated at -mtol, not -tol: even
	// a small drop regresses however coarse the timing tolerance.
	cur3 := writeDoc(t, "cur3.json", strings.Replace(churnBase, `"completion_rate":0.97`, `"completion_rate":0.95`, 1))
	if code, out := diff(t, "-tol", "1.0", base, cur3); code != 1 || !strings.Contains(out, "completion_rate") {
		t.Fatalf("small completion drop must regress at coarse -tol: exit %d:\n%s", code, out)
	}
	// A higher completion rate never flags.
	cur2 := writeDoc(t, "cur2.json", strings.Replace(churnBase, `"completion_rate":0.95`, `"completion_rate":0.99`, 1))
	if code, out := diff(t, "-tol", "0.5", base, cur2); code != 0 {
		t.Fatalf("completion gain flagged: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneChurnCounterDriftFails(t *testing.T) {
	base := writeDoc(t, "base.json", churnBase)
	cur := writeDoc(t, "cur.json", strings.Replace(churnBase, `"stale_quarantines":12`, `"stale_quarantines":13`, 1))
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "churn05-lease2.stale_quarantines") {
		t.Fatalf("liveness-count drift must regress at ctol 0: exit %d:\n%s", code, out)
	}
}

func TestCtrlplaneChurnVerdictFlipFails(t *testing.T) {
	base := writeDoc(t, "base.json", churnBase)
	cur := writeDoc(t, "cur.json", strings.Replace(churnBase, `"bad_caught":true`, `"bad_caught":false`, 1))
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "bad_caught") {
		t.Fatalf("bad_caught flip must regress: exit %d:\n%s", code, out)
	}
	// Latency growth past tolerance fails one-sided.
	cur2 := writeDoc(t, "cur2.json", strings.Replace(churnBase, `"p95_decision_ms":0.4`, `"p95_decision_ms":4`, 1))
	if code, out := diff(t, "-tol", "0.5", base, cur2); code != 1 || !strings.Contains(out, "p95_decision_ms") {
		t.Fatalf("latency growth must regress: exit %d:\n%s", code, out)
	}
}

const resultsBase = `{"tool":"paperbench","results":[
	{"name":"table3","seconds":5,"metrics":{"pgos.00":0.95,"ops.00":6051}},
	{"name":"fig7","seconds":1,"metrics":{"mean_residency":0.48}}]}`

func TestResultsMetricDriftFails(t *testing.T) {
	base := writeDoc(t, "base.json", resultsBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","results":[
		{"name":"table3","seconds":5,"metrics":{"pgos.00":0.90,"ops.00":6051}},
		{"name":"fig7","seconds":1,"metrics":{"mean_residency":0.48}}]}`)
	code, out := diff(t, base, cur)
	if code != 1 || !strings.Contains(out, "table3.pgos.00") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestResultsSecondsWarnOnly(t *testing.T) {
	base := writeDoc(t, "base.json", resultsBase)
	cur := writeDoc(t, "cur.json", `{"tool":"paperbench","results":[
		{"name":"table3","seconds":50,"metrics":{"pgos.00":0.95,"ops.00":6051}},
		{"name":"fig7","seconds":1,"metrics":{"mean_residency":0.48}}]}`)
	code, out := diff(t, base, cur)
	if code != 0 || !strings.Contains(out, "table3.seconds") {
		t.Fatalf("slow experiment must warn, not fail: exit %d:\n%s", code, out)
	}
}

func TestSchemaMismatch(t *testing.T) {
	base := writeDoc(t, "base.json", uarchBase)
	cur := writeDoc(t, "cur.json", resultsBase)
	if code, _ := diff(t, base, cur); code != 2 {
		t.Fatalf("schema mismatch must exit 2, got %d", code)
	}
}

func TestIdenticalFilesClean(t *testing.T) {
	for _, doc := range []string{uarchBase, manifestBase, resultsBase, ctrlplaneBase, churnBase} {
		base := writeDoc(t, "base.json", doc)
		cur := writeDoc(t, "cur.json", doc)
		if code, out := diff(t, base, cur); code != 0 {
			t.Fatalf("identical files differ: %s\n%s", doc[:40], out)
		}
	}
}

// TestOneSidedDeclaredKeysWarn: a declared key deleted from one file is
// reported by name as a warning, like a one-sided benchmark or counter,
// and the exit status stays 0.
func TestOneSidedDeclaredKeysWarn(t *testing.T) {
	for _, c := range []struct {
		base, cur string
		want      []string
	}{
		{ctrlplaneBase, strings.NewReplacer(`"machines_per_sec":4000,`, ``, `"completed":true,`, ``).Replace(ctrlplaneBase),
			[]string{"machines_per_sec only in baseline", "completed only in baseline"}},
		{uarchBase, strings.NewReplacer(`,"ns_per_instr":10`, ``, `,"allocs_per_op":3`, ``).Replace(uarchBase),
			[]string{"A.ns_per_instr only in baseline", "B.allocs_per_op only in baseline"}},
		{churnBase, strings.Replace(churnBase, `"leaves":40,`, ``, 1),
			[]string{"churn05-lease2.leaves only in baseline"}},
		{resultsBase, strings.Replace(resultsBase, `"seconds":5,`, ``, 1),
			[]string{"table3.seconds only in baseline"}},
	} {
		if c.cur == c.base {
			t.Fatalf("no key deleted from %s", c.base[:40])
		}
		base := writeDoc(t, "base.json", c.base)
		cur := writeDoc(t, "cur.json", c.cur)
		code, out := diff(t, base, cur)
		if code != 0 {
			t.Errorf("one-sided keys must not fail: exit %d:\n%s", code, out)
		}
		for _, w := range c.want {
			if !strings.Contains(out, "WARN "+w) {
				t.Errorf("missing warning %q:\n%s", w, out)
			}
		}
		// The same files the other way round warn from the current side.
		if _, out := diff(t, cur, base); !strings.Contains(out, strings.Replace(c.want[0], "baseline", "current", 1)) {
			t.Errorf("reversed diff does not warn %q:\n%s", c.want[0], out)
		}
	}
}
