package scripts

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestPerfPairsSummary drives perfpairs over canned perfbench result
// lines: three clean pairs yield each side's median and quartiles, the
// change in medians and the pairs won for every end-to-end metric, and
// exit 0; a run that is incorrect, failed operations, exited non-zero,
// wrote no result or lacks its other side makes it exit 1.
func TestPerfPairsSummary(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "perfpairs")
	if out, err := exec.Command(goTool, "build", "-o", bin, "perfpairs.go").CombinedOutput(); err != nil {
		t.Fatalf("building perfpairs: %v\n%s", err, out)
	}
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "round_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	res := func(correct string, failed, round, setup string) string {
		return `{"correct":` + correct + `,"attempted":100,"failed":` + failed +
			`,"metrics":{"round_p90_ms":{"value":` + round + `,"unit":"ms"},"setup_s":{"value":` + setup + `,"unit":"s"}}}`
	}
	clean := []string{
		"base 11 0 " + res("true", "0", "0.3", "1.2"),
		"change 11 0 " + res("true", "0", "0.2", "1.3"),
		"change 12 0 " + res("true", "0", "0.25", "1.1"),
		"base 12 0 " + res("true", "0", "0.2", "1.2"),
		"base 13 0 " + res("true", "0", "0.4", "1.2"),
		"change 13 0 " + res("true", "0", "0.1", "1.0"),
	}
	run := func(lines []string) (string, int) {
		cmd := exec.Command(bin, "-bench", bench, "-workload", "replay")
		cmd.Stdin = strings.NewReader(strings.Join(lines, "\n") + "\n")
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); ok {
			return string(out), ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		return string(out), 0
	}

	out, code := run(clean)
	if code != 0 {
		t.Fatalf("clean pairs: exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"replay round_p90_ms (ms, lower is better), 3 pairs:",
		"  seed 12: base 0.2, change 0.25 (+25.0%)",
		"  base   median 0.3 [q1 0.25, q3 0.35]",
		"  change median 0.2 [q1 0.15, q3 0.225]",
		"  change in medians -33.3%, change better in 2/3 pairs",
		"replay setup_s (s, lower is better), 3 pairs:",
		"  change median 1.1 [q1 1.05, q3 1.2]",
		"  change in medians -8.3%, change better in 2/3 pairs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("clean pairs: output lacks %q\n%s", want, out)
		}
	}

	for _, tc := range []struct{ name, line, says string }{
		{"incorrect", "change 14 0 " + res("false", "0", "0.1", "1.0"), "correct false"},
		{"failed-ops", "change 14 0 " + res("true", "3", "0.1", "1.0"), "3 of 100 operations failed"},
		{"exit-status", "change 14 1 ", "exited 1"},
		{"no-result", "change 14 0 ", "no result line"},
	} {
		lines := append(append([]string(nil), clean...), "base 14 0 "+res("true", "0", "0.3", "1.2"), tc.line)
		out, code := run(lines)
		if code != 1 || !strings.Contains(out, tc.says) {
			t.Errorf("%s: exit %d, want 1 with %q\n%s", tc.name, code, tc.says, out)
		}
	}
	if out, code := run(append(append([]string(nil), clean...), "base 14 0 "+res("true", "0", "0.3", "1.2"))); code != 1 ||
		!strings.Contains(out, "seed 14: one side has no result") {
		t.Errorf("unpaired run: exit %d, want 1\n%s", code, out)
	}
}
