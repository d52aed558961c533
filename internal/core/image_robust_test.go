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
	"clustergate/internal/ml/linear"
	"clustergate/internal/ml/mlp"
	"clustergate/internal/ml/svm"
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

// treeImage seals smallController with its high-performance forest's
// single tree replaced by nodes: a CRC-valid image carrying whatever tree
// shape the bytes say.
func treeImage(t testing.TB, nodes []forest.Node) []byte {
	g := smallController()
	g.HighPerf = PointPredictor{M: &forest.Forest{Trees: []*forest.Tree{{MaxDepth: 1, Nodes: nodes}}}}
	return seal(t, g)
}

// loopingTreeImage carries a tree whose root's right child is the root
// itself: before decodeModel checked tree shapes it loaded, and scoring
// any input above the threshold looped forever.
func loopingTreeImage(t testing.TB) []byte {
	return treeImage(t, []forest.Node{{Feature: 1, Threshold: 0.5, Left: 1, Right: 0}, {Feature: -1, Prob: 0.1}})
}

// wideFeatureImage carries a tree splitting on a feature beyond the three
// selected counters: it loaded, and scoring panicked indexing the input.
func wideFeatureImage(t testing.TB) []byte {
	return treeImage(t, []forest.Node{{Feature: 3, Left: 1, Right: 2}, {Feature: -1}, {Feature: -1, Prob: 1}})
}

// lowPowerImage seals smallController with its low-power model replaced by
// p: a CRC-valid image carrying whatever model shape the bytes say.
func lowPowerImage(t testing.TB, p Predictor) []byte {
	g := smallController()
	g.LowPower = p
	return seal(t, g)
}

// unitScaler standardises n inputs with zero mean and unit deviation.
func unitScaler(n int) *ml.Scaler {
	s := &ml.Scaler{Mean: make([]float64, n), Std: make([]float64, n)}
	for i := range s.Std {
		s.Std[i] = 1
	}
	return s
}

// shortLogisticImage carries a logistic model with one weight over the
// three selected counters: it loaded, and its first score panicked
// indexing the weights.
func shortLogisticImage(t testing.TB) []byte {
	return lowPowerImage(t, PointPredictor{M: &linear.Logistic{W: []float64{1}, Scaler: unitScaler(3)}})
}

// emptyEnsembleImage carries an SVM ensemble without members: it loaded,
// and it scored NaN.
func emptyEnsembleImage(t testing.TB) []byte {
	return lowPowerImage(t, PointPredictor{M: &svm.Ensemble{}})
}

// TestLoadRejectsMalformedTrees sends images whose trees, forest, linear,
// SVM or SRCH models, or counter columns could not be scored through both
// load paths: each must fail with an error. Well-formed models of the
// linear, SVM and SRCH kinds load and score.
func TestLoadRejectsMalformedTrees(t *testing.T) {
	leaves := []forest.Node{{Feature: -1}, {Feature: -1, Prob: 1}}
	split := func(f int, l, r int32) []forest.Node {
		return append([]forest.Node{{Feature: f, Left: l, Right: r}}, leaves...)
	}
	emptyForest := smallController()
	emptyForest.HighPerf = PointPredictor{M: &forest.Forest{}}
	bareTree := smallController()
	bareTree.LowPower = PointPredictor{M: &forest.Tree{}}
	column := func(c int) []byte {
		g := smallController()
		g.Columns = []int{0, c, 16}
		return seal(t, g)
	}
	logistic := func(w int) *linear.Logistic { return &linear.Logistic{W: make([]float64, w), Scaler: unitScaler(w)} }
	svmLinear := func(w int) *svm.Linear { return &svm.Linear{W: make([]float64, w), Scaler: unitScaler(w)} }
	srch := func(buckets int, edges [][]float64, lr *linear.Logistic) Predictor {
		return WindowPredictor{M: &linear.SRCH{Buckets: buckets, Edges: edges, Window: 1, LR: lr}}
	}
	// One interior edge per selected counter: two buckets each, six
	// histogram features.
	edges := [][]float64{{0.5}, {0.5}, {0.5}}
	cases := map[string][]byte{
		"looping tree":          loopingTreeImage(t),
		"feature past inputs":   wideFeatureImage(t),
		"backward child":        treeImage(t, append(split(0, 1, 2), forest.Node{Feature: 2, Left: 0, Right: 1})),
		"child past the end":    treeImage(t, split(0, 1, 3)),
		"negative child":        treeImage(t, split(0, -1, 2)),
		"no nodes":              treeImage(t, nil),
		"no trees":              seal(t, emptyForest),
		"empty decision tree":   seal(t, bareTree),
		"negative column":       column(-1),
		"column past the space": column(telemetry.TotalCounters),
		"short logistic":        shortLogisticImage(t),
		"logistic, no scaler":   lowPowerImage(t, PointPredictor{M: &linear.Logistic{W: make([]float64, 3)}}),
		"short svm scaler":      lowPowerImage(t, PointPredictor{M: &svm.Linear{W: make([]float64, 3), Scaler: unitScaler(2)}}),
		"empty ensemble":        emptyEnsembleImage(t),
		"short ensemble member": lowPowerImage(t, PointPredictor{M: &svm.Ensemble{Members: []*svm.Linear{svmLinear(3), svmLinear(2)}}}),
		"srch, no buckets":      lowPowerImage(t, srch(0, edges, logistic(0))),
		"srch, missing row":     lowPowerImage(t, srch(2, edges[:2], logistic(4))),
		"srch, too many edges":  lowPowerImage(t, srch(2, [][]float64{{0.5}, {0.2, 0.7}, {0.5}}, logistic(6))),
		"srch, short regressor": lowPowerImage(t, srch(2, edges, logistic(5))),
		"srch, no regressor":    lowPowerImage(t, srch(2, edges, nil)),
		// Three counters times this bucket count wraps int to 2, the
		// regressor's width.
		"srch, overflowing buckets": lowPowerImage(t, srch((1<<64+2)/3, [][]float64{nil, nil, nil}, logistic(2))),
	}
	for name, img := range cases {
		for _, load := range []struct {
			path string
			fn   func(io.Reader) (*GatingController, error)
		}{{"verified", LoadController}, {"unverified", LoadControllerUnverified}} {
			if _, err := load.fn(bytes.NewReader(img)); err == nil {
				t.Errorf("%s: %s load accepted the image", name, load.path)
			}
		}
	}
	// Leaves carry Feature -1 and may sit anywhere after their parent.
	g, err := LoadController(bytes.NewReader(treeImage(t, []forest.Node{
		{Feature: 2, Threshold: 0.5, Left: 2, Right: 1}, {Feature: -1, Prob: 0.7}, {Feature: -1, Prob: 0.2},
	})))
	if err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	for _, c := range []struct{ x, want float64 }{{0, 0}, {1, 1}} {
		if p := g.HighPerf.ScoreWindow([]float64{0, 0, c.x}, nil); p != c.want {
			t.Errorf("reordered tree scored %v on feature value %v, want %v", p, c.x, c.want)
		}
	}
	for name, p := range map[string]Predictor{
		"logistic":     PointPredictor{M: logistic(3)},
		"svm-linear":   PointPredictor{M: svmLinear(3)},
		"svm-ensemble": PointPredictor{M: &svm.Ensemble{Members: []*svm.Linear{svmLinear(3), svmLinear(3)}}},
		"srch":         srch(2, edges, logistic(6)),
	} {
		g, err := LoadController(bytes.NewReader(lowPowerImage(t, p)))
		if err != nil {
			t.Errorf("well-formed %s rejected: %v", name, err)
			continue
		}
		if s := g.LowPower.ScoreWindow([]float64{1, 0, 1}, [][]float64{{1, 0, 1}}); s != 0.5 {
			t.Errorf("zero-weight %s scored %v, want 0.5", name, s)
		}
	}
}

// FuzzLoadController feeds arbitrary bytes to both load paths: each must
// return a controller or an error, never panic. The committed seeds
// (testdata/fuzz/FuzzLoadController) are a sealed image of
// smallController, a truncated copy, the malformed-MLP image, and the
// looping-tree, wide-feature, short-logistic and empty-ensemble images.
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
