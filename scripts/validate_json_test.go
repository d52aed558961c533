package scripts

import (
	"os"
	"os/exec"
	"path/filepath"
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
