// Package mlp implements the multi-layer perceptron adaptation models of
// the paper: stacked linear pattern-matching layers with ReLU activations
// and a sigmoid output, trained by backpropagation with the Adam optimizer
// (the paper trains with "an open source implementation of the Adam
// optimizer"; this is that algorithm from scratch).
package mlp

import (
	"fmt"
	"math"
	"math/rand"

	"clustergate/internal/ml"
)

// Config selects the network topology and training hyperparameters.
type Config struct {
	// Hidden lists the filter count of each hidden layer, e.g. {8, 8, 4}
	// for the paper's Best MLP.
	Hidden []int
	// Epochs over the tuning set. Zero selects 30.
	Epochs int
	// BatchSize for minibatch SGD. Zero selects 64.
	BatchSize int
	// LearningRate for Adam. Zero selects 1e-3.
	LearningRate float64
	// Seed drives weight initialisation and shuffling.
	Seed int64
	// ClassWeightPos scales the loss of positive samples (for imbalanced
	// data). Zero selects 1.
	ClassWeightPos float64
}

// MLP is a trained feed-forward network. It satisfies ml.Model.
type MLP struct {
	Sizes   []int // layer widths, input first, 1 last
	Weights [][]float64
	Biases  [][]float64
	Scaler  *ml.Scaler
}

// NumLayers returns the count of weight layers (hidden layers + output).
func (n *MLP) NumLayers() int { return len(n.Weights) }

// NumParams returns the number of trainable parameters.
func (n *MLP) NumParams() int {
	p := 0
	for l := range n.Weights {
		p += len(n.Weights[l]) + len(n.Biases[l])
	}
	return p
}

// CheckShape reports an error unless the network's shapes agree with each
// other and with an input width: Sizes runs from inputs to one output,
// every weight and bias layer has the length the widths it connects
// imply, and the scaler covers every input. A network decoded from
// untrusted bytes that fails it would index out of range at inference.
func (n *MLP) CheckShape(inputs int) error {
	if len(n.Sizes) < 2 {
		return fmt.Errorf("mlp: %d layer sizes, want at least 2", len(n.Sizes))
	}
	if n.Sizes[0] != inputs || n.Sizes[len(n.Sizes)-1] != 1 {
		return fmt.Errorf("mlp: layer sizes %v do not run from %d inputs to 1 output", n.Sizes, inputs)
	}
	layers := len(n.Sizes) - 1
	if len(n.Weights) != layers || len(n.Biases) != layers {
		return fmt.Errorf("mlp: %d weight and %d bias layers for %d layer sizes",
			len(n.Weights), len(n.Biases), len(n.Sizes))
	}
	for l := 0; l < layers; l++ {
		// Each width is checked positive as a layer's output, the input
		// width by its caller.
		in, out := n.Sizes[l], n.Sizes[l+1]
		if out <= 0 {
			return fmt.Errorf("mlp: layer %d has %d outputs", l, out)
		}
		// Divide rather than multiply: decoded widths may overflow int.
		if w := len(n.Weights[l]); w%out != 0 || w/out != in || len(n.Biases[l]) != out {
			return fmt.Errorf("mlp: layer %d has %d weights and %d biases, want %d and %d",
				l, w, len(n.Biases[l]), in*out, out)
		}
	}
	if n.Scaler == nil || len(n.Scaler.Mean) != inputs || len(n.Scaler.Std) != inputs {
		return fmt.Errorf("mlp: scaler does not cover %d inputs", inputs)
	}
	return nil
}

// Score runs inference: standardise, forward through ReLU layers, sigmoid.
func (n *MLP) Score(x []float64) float64 {
	act := n.Scaler.Apply(x, nil)
	for l := 0; l < len(n.Weights); l++ {
		in, out := n.Sizes[l], n.Sizes[l+1]
		next := make([]float64, out)
		w := n.Weights[l]
		for j := 0; j < out; j++ {
			s := n.Biases[l][j]
			row := w[j*in : (j+1)*in]
			for i, v := range act {
				s += row[i] * v
			}
			if l < len(n.Weights)-1 && s < 0 {
				s = 0 // ReLU on hidden layers
			}
			next[j] = s
		}
		act = next
	}
	return sigmoid(act[0])
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Train fits an MLP to the tuning set.
func Train(cfg Config, tune *ml.Dataset) (*MLP, error) {
	if err := tune.Validate(); err != nil {
		return nil, err
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 30
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 64
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 1e-3
	}
	if cfg.ClassWeightPos == 0 {
		cfg.ClassWeightPos = 1
	}
	inDim := len(tune.X[0])
	sizes := append([]int{inDim}, append(append([]int(nil), cfg.Hidden...), 1)...)
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("mlp: invalid layer size %d", s)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &MLP{Sizes: sizes, Scaler: ml.FitScaler(tune)}
	n.Weights = make([][]float64, len(sizes)-1)
	n.Biases = make([][]float64, len(sizes)-1)
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		n.Weights[l] = make([]float64, in*out)
		n.Biases[l] = make([]float64, out)
		// He initialisation for ReLU layers.
		scale := math.Sqrt(2 / float64(in))
		for i := range n.Weights[l] {
			n.Weights[l][i] = rng.NormFloat64() * scale
		}
	}

	tr := newTrainer(n, cfg)
	// Pre-standardise inputs once.
	xs := make([][]float64, tune.Len())
	for i, x := range tune.X {
		xs[i] = n.Scaler.Apply(x, nil)
	}
	order := rng.Perm(tune.Len())
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			tr.step(xs, tune.Y, order[start:end])
		}
	}
	return n, nil
}

// trainer holds Adam state and backprop scratch buffers.
type trainer struct {
	n   *MLP
	cfg Config

	gradW, gradB [][]float64
	mW, vW       [][]float64
	mB, vB       [][]float64
	acts         [][]float64 // per-layer activations (post-ReLU)
	deltas       [][]float64
	t            int
}

func newTrainer(n *MLP, cfg Config) *trainer {
	tr := &trainer{n: n, cfg: cfg}
	L := len(n.Weights)
	tr.gradW = make([][]float64, L)
	tr.gradB = make([][]float64, L)
	tr.mW = make([][]float64, L)
	tr.vW = make([][]float64, L)
	tr.mB = make([][]float64, L)
	tr.vB = make([][]float64, L)
	tr.acts = make([][]float64, L+1)
	tr.deltas = make([][]float64, L)
	for l := 0; l < L; l++ {
		tr.gradW[l] = make([]float64, len(n.Weights[l]))
		tr.gradB[l] = make([]float64, len(n.Biases[l]))
		tr.mW[l] = make([]float64, len(n.Weights[l]))
		tr.vW[l] = make([]float64, len(n.Weights[l]))
		tr.mB[l] = make([]float64, len(n.Biases[l]))
		tr.vB[l] = make([]float64, len(n.Biases[l]))
		tr.deltas[l] = make([]float64, n.Sizes[l+1])
		tr.acts[l+1] = make([]float64, n.Sizes[l+1])
	}
	return tr
}

// step accumulates gradients over one minibatch and applies an Adam update.
func (tr *trainer) step(xs [][]float64, ys []int, batch []int) {
	n := tr.n
	L := len(n.Weights)
	for l := 0; l < L; l++ {
		zero(tr.gradW[l])
		zero(tr.gradB[l])
	}

	for _, idx := range batch {
		// Forward, caching activations.
		tr.acts[0] = xs[idx]
		for l := 0; l < L; l++ {
			in, out := n.Sizes[l], n.Sizes[l+1]
			w := n.Weights[l]
			src := tr.acts[l]
			dst := tr.acts[l+1]
			for j := 0; j < out; j++ {
				s := n.Biases[l][j]
				row := w[j*in : (j+1)*in]
				for i, v := range src {
					s += row[i] * v
				}
				if l < L-1 && s < 0 {
					s = 0
				}
				dst[j] = s
			}
		}
		// Output delta: sigmoid + cross-entropy gives (p - y).
		p := sigmoid(tr.acts[L][0])
		weight := 1.0
		if ys[idx] == 1 {
			weight = tr.cfg.ClassWeightPos
		}
		tr.deltas[L-1][0] = (p - float64(ys[idx])) * weight

		// Backward.
		for l := L - 1; l >= 0; l-- {
			in, out := n.Sizes[l], n.Sizes[l+1]
			w := n.Weights[l]
			src := tr.acts[l]
			for j := 0; j < out; j++ {
				d := tr.deltas[l][j]
				if d == 0 {
					continue
				}
				tr.gradB[l][j] += d
				row := tr.gradW[l][j*in : (j+1)*in]
				for i, v := range src {
					row[i] += d * v
				}
			}
			if l > 0 {
				prev := tr.deltas[l-1]
				zero(prev)
				for j := 0; j < out; j++ {
					d := tr.deltas[l][j]
					if d == 0 {
						continue
					}
					row := w[j*in : (j+1)*in]
					for i := range prev {
						prev[i] += d * row[i]
					}
				}
				// ReLU derivative: zero where the activation was clipped.
				for i := range prev {
					if tr.acts[l][i] <= 0 {
						prev[i] = 0
					}
				}
			}
		}
	}

	// Adam update.
	tr.t++
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	lr := tr.cfg.LearningRate
	bc1 := 1 - math.Pow(beta1, float64(tr.t))
	bc2 := 1 - math.Pow(beta2, float64(tr.t))
	inv := 1 / float64(len(batch))
	for l := 0; l < L; l++ {
		adam(n.Weights[l], tr.gradW[l], tr.mW[l], tr.vW[l], lr, beta1, beta2, bc1, bc2, eps, inv)
		adam(n.Biases[l], tr.gradB[l], tr.mB[l], tr.vB[l], lr, beta1, beta2, bc1, bc2, eps, inv)
	}
}

func adam(w, g, m, v []float64, lr, b1, b2, bc1, bc2, eps, scale float64) {
	for i := range w {
		gi := g[i] * scale
		m[i] = b1*m[i] + (1-b1)*gi
		v[i] = b2*v[i] + (1-b2)*gi*gi
		mHat := m[i] / bc1
		vHat := v[i] / bc2
		w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
