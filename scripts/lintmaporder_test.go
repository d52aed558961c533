package scripts

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLintMapOrderFindsPlantedSum runs the map-order lint over a planted
// package: of a float sum over a map, an integer sum over a map, a float
// sum over a slice, a float product over a sorted key slice and a float
// sum over a map in a test file, only the first is flagged.
func TestLintMapOrderFindsPlantedSum(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "lintmaporder")
	if out, err := exec.Command(goTool, "build", "-o", bin, "lintmaporder.go").CombinedOutput(); err != nil {
		t.Fatalf("building lintmaporder: %v\n%s", err, out)
	}
	mod := filepath.Join(dir, "mod")
	pkg := filepath.Join(mod, "internal", "planted")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(mod, "go.mod"): "module planted\n\ngo 1.22\n",
		filepath.Join(pkg, "planted.go"): `package planted

import "sort"

func Sum(m map[string]float64) float64 {
	s := 0.0
	for _, v := range m {
		s += v
	}
	return s
}

func Count(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func Total(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func Product(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	p := 1.0
	for _, k := range keys {
		p *= m[k]
	}
	return p
}
`,
		filepath.Join(pkg, "planted_test.go"): `package planted

func sumInTest(m map[int]float64) (s float64) {
	for _, v := range m {
		s -= v
	}
	return s
}
`,
	}
	for path, src := range files {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(bin, "internal")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("lint passed a planted map-order sum:\n%s", out)
	}
	var findings []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if strings.Contains(line, "inside a range over a map") {
			findings = append(findings, line)
		}
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "planted.go:8:") {
		t.Fatalf("findings = %q, want exactly the sum at planted.go:8\n%s", findings, out)
	}
}
