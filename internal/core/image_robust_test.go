package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"clustergate/internal/dataset"
	"clustergate/internal/ml"
	"clustergate/internal/ml/forest"
	"clustergate/internal/ml/mlp"
	"clustergate/internal/telemetry"
)

// smallController is a tiny controller of the shapes training produces —
// a one-split forest for high-performance mode and a 3→2→1 MLP for
// low-power mode, over three counters — cheap enough to seal in any test.
func smallController() *GatingController {
	trees := []*forest.Tree{{MaxDepth: 1, Nodes: []forest.Node{
		{Feature: 1, Threshold: 0.5, Left: 1, Right: 2},
		{Feature: -1, Prob: 0.1},
		{Feature: -1, Prob: 0.9},
	}}}
	net := &mlp.MLP{
		Sizes:   []int{3, 2, 1},
		Weights: [][]float64{{1, 0, -1, 0, 1, 1}, {1, -1}},
		Biases:  [][]float64{{0, 0.5}, {-0.25}},
		Scaler:  &ml.Scaler{Mean: []float64{0, 0, 0}, Std: []float64{1, 2, 4}},
	}
	return &GatingController{
		Name:     "small",
		HighPerf: PointPredictor{M: &forest.Forest{Trees: trees}}, LowPower: PointPredictor{M: net},
		ThresholdHigh: 0.5, ThresholdLow: 0.6,
		Interval: 10_000, Granularity: 20_000,
		Counters: telemetry.NewStandardCounterSet(), Columns: []int{0, 5, 16},
		SLA: dataset.SLA{PSLA: 0.9},
	}
}

// seal returns g's sealed firmware image.
func seal(t testing.TB, g *GatingController) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveController(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Environment variables that turn a re-executed test binary into an image
// sealer: the mode ("plain" or "gob-first") and the output file.
const (
	sealModeEnv = "CLUSTERGATE_TEST_SEAL_MODE"
	sealOutEnv  = "CLUSTERGATE_TEST_SEAL_OUT"
)

// TestImageBytesIndependentOfGobHistory re-executes the test binary twice,
// once sealing an image straight away and once after gob-encoding an
// unrelated type, and requires byte-identical images. gob numbers types
// process-wide in first-use order and writes the numbers into the stream,
// so only core's init numbering the image's types first makes the bytes a
// pure function of the controller.
func TestImageBytesIndependentOfGobHistory(t *testing.T) {
	if mode := os.Getenv(sealModeEnv); mode != "" {
		if mode == "gob-first" {
			type unrelated struct {
				Labels []string
				Rows   [][]float64
				Tally  map[string]int
			}
			v := unrelated{Labels: []string{"a"}, Rows: [][]float64{{1}}, Tally: map[string]int{"a": 1}}
			if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(os.Getenv(sealOutEnv), seal(t, smallController()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	var images [][]byte
	for _, mode := range []string{"plain", "gob-first"} {
		out := filepath.Join(t.TempDir(), mode+".img")
		cmd := exec.Command(os.Args[0], "-test.run=^TestImageBytesIndependentOfGobHistory$")
		cmd.Env = append(os.Environ(), sealModeEnv+"="+mode, sealOutEnv+"="+out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s sealer: %v\n%s", mode, err, msg)
		}
		img, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	if !bytes.Equal(images[0], images[1]) {
		t.Fatal("image bytes depend on what the process gob-encoded before sealing")
	}
}

// malformedMLPImage seals a CRC-valid image whose low-power MLP has no
// layer sizes: it passes the envelope check and decodes, and before
// decodeModel checked shapes it panicked deriving the firmware cost.
func malformedMLPImage(t testing.TB) []byte {
	g := smallController()
	g.LowPower = PointPredictor{M: &mlp.MLP{Weights: [][]float64{{1}}, Biases: [][]float64{{0}}}}
	return seal(t, g)
}

// TestLoadRejectsMalformedMLP sends the malformed-MLP image, and variants
// whose weight, bias, input or scaler shapes disagree, through both load
// paths: each must fail with an error, never a panic.
func TestLoadRejectsMalformedMLP(t *testing.T) {
	good := smallController().LowPower.(PointPredictor).M.(*mlp.MLP)
	variant := func(edit func(*mlp.MLP)) []byte {
		n := *good
		n.Sizes = append([]int(nil), good.Sizes...)
		n.Weights = append([][]float64(nil), good.Weights...)
		n.Biases = append([][]float64(nil), good.Biases...)
		edit(&n)
		g := smallController()
		g.LowPower = PointPredictor{M: &n}
		return seal(t, g)
	}
	cases := map[string][]byte{
		"empty sizes":      malformedMLPImage(t),
		"short weights":    variant(func(n *mlp.MLP) { n.Weights[1] = []float64{1} }),
		"missing bias":     variant(func(n *mlp.MLP) { n.Biases = n.Biases[:1] }),
		"wrong input":      variant(func(n *mlp.MLP) { n.Sizes[0] = 4 }),
		"two outputs":      variant(func(n *mlp.MLP) { n.Sizes[2] = 2 }),
		"negative width":   variant(func(n *mlp.MLP) { n.Sizes[1] = -2 }),
		"scaler too short": variant(func(n *mlp.MLP) { n.Scaler = &ml.Scaler{Mean: []float64{0}, Std: []float64{1}} }),
	}
	for name, img := range cases {
		for _, load := range []struct {
			path string
			fn   func(io.Reader) (*GatingController, error)
		}{{"verified", LoadController}, {"unverified", LoadControllerUnverified}} {
			if _, err := load.fn(bytes.NewReader(img)); err == nil {
				t.Errorf("%s: %s load accepted a malformed MLP", name, load.path)
			}
		}
	}
	if _, err := LoadController(bytes.NewReader(seal(t, smallController()))); err != nil {
		t.Fatalf("well-formed controller rejected: %v", err)
	}
}

// FuzzLoadController feeds arbitrary bytes to both load paths: each must
// return a controller or an error, never panic. The committed seeds
// (testdata/fuzz/FuzzLoadController) are a sealed image of
// smallController, a truncated copy and the malformed-MLP image.
func FuzzLoadController(f *testing.F) {
	f.Fuzz(func(t *testing.T, img []byte) {
		if g, err := LoadController(bytes.NewReader(img)); err == nil && g == nil {
			t.Fatal("LoadController returned neither a controller nor an error")
		}
		if g, err := LoadControllerUnverified(bytes.NewReader(img)); err == nil && g == nil {
			t.Fatal("LoadControllerUnverified returned neither a controller nor an error")
		}
	})
}
