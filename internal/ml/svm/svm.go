// Package svm implements the support-vector-machine baselines of Table 3:
// linear SVMs trained with the Pegasos stochastic subgradient method, and
// χ²-kernel SVMs trained by kernelised stochastic dual ascent with a
// support-vector budget (the paper caps support vectors at 1,000).
package svm

import (
	"fmt"
	"math"
	"math/rand"

	"clustergate/internal/ml"
)

// Linear is a trained linear SVM; Score maps the margin through a sigmoid
// so it composes with threshold calibration like every other model.
type Linear struct {
	W      []float64
	B      float64
	Scaler *ml.Scaler
}

// CheckShape reports an error unless the model can score every input of
// the given width: it has a scaler, and its weights and the scaler's mean
// and standard deviation each have one entry per input. A model decoded
// from untrusted bytes that fails it would index out of range at
// inference.
func (l *Linear) CheckShape(inputs int) error {
	if l.Scaler == nil || len(l.W) != inputs || len(l.Scaler.Mean) != inputs || len(l.Scaler.Std) != inputs {
		return fmt.Errorf("svm: weights and scaler do not cover %d inputs", inputs)
	}
	return nil
}

// Score returns a calibrated confidence in [0,1].
func (l *Linear) Score(x []float64) float64 {
	xs := l.Scaler.Apply(x, nil)
	z := l.B
	for i, v := range xs {
		z += l.W[i] * v
	}
	return 1 / (1 + math.Exp(-2*z))
}

// LinearConfig controls Pegasos training.
type LinearConfig struct {
	// Lambda is the regularisation strength. Zero selects 1e-4.
	Lambda float64
	// Iterations of stochastic subgradient descent. Zero selects 20×n.
	Iterations int
	Seed       int64
}

// TrainLinear fits a linear SVM with the Pegasos algorithm.
func TrainLinear(cfg LinearConfig, tune *ml.Dataset) (*Linear, error) {
	if err := tune.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1e-4
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 20 * tune.Len()
	}
	scaler := ml.FitScaler(tune)
	xs := make([][]float64, tune.Len())
	for i, x := range tune.X {
		xs[i] = scaler.Apply(x, nil)
	}
	dim := len(tune.X[0])
	w := make([]float64, dim)
	b := 0.0
	rng := rand.New(rand.NewSource(cfg.Seed))

	for t := 1; t <= cfg.Iterations; t++ {
		i := rng.Intn(len(xs))
		y := 2*float64(tune.Y[i]) - 1
		eta := 1 / (cfg.Lambda * float64(t))
		margin := b
		for j, v := range xs[i] {
			margin += w[j] * v
		}
		margin *= y
		for j := range w {
			w[j] *= 1 - eta*cfg.Lambda
		}
		if margin < 1 {
			for j, v := range xs[i] {
				w[j] += eta * y * v
			}
			// The bias is unregularised; cap its rate so the huge early
			// Pegasos steps do not swamp it.
			etaB := eta
			if etaB > 0.05 {
				etaB = 0.05
			}
			b += etaB * y
		}
	}
	return &Linear{W: w, B: b, Scaler: scaler}, nil
}

// Ensemble averages several linear SVMs (Table 3's "5 SVM Ensemble").
type Ensemble struct {
	Members []*Linear
}

// TrainEnsemble trains k linear SVMs on bootstrap resamples.
func TrainEnsemble(k int, cfg LinearConfig, tune *ml.Dataset) (*Ensemble, error) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5e5e))
	e := &Ensemble{}
	for m := 0; m < k; m++ {
		idx := make([]int, tune.Len())
		for i := range idx {
			idx[i] = rng.Intn(tune.Len())
		}
		c := cfg
		c.Seed = rng.Int63()
		member, err := TrainLinear(c, tune.Subset(idx))
		if err != nil {
			return nil, err
		}
		e.Members = append(e.Members, member)
	}
	return e, nil
}

// CheckShape reports an error unless the ensemble has at least one member
// and every member passes Linear.CheckShape for the input width; an empty
// ensemble would score NaN.
func (e *Ensemble) CheckShape(inputs int) error {
	if len(e.Members) == 0 {
		return fmt.Errorf("svm: ensemble has no members")
	}
	for i, m := range e.Members {
		if m == nil {
			return fmt.Errorf("svm: ensemble member %d is missing", i)
		}
		if err := m.CheckShape(inputs); err != nil {
			return fmt.Errorf("member %d: %w", i, err)
		}
	}
	return nil
}

// Score averages member confidences.
func (e *Ensemble) Score(x []float64) float64 {
	s := 0.0
	for _, m := range e.Members {
		s += m.Score(x)
	}
	return s / float64(len(e.Members))
}

// Chi2 is a χ²-kernel SVM with a bounded support set.
type Chi2 struct {
	SupportX [][]float64 // standardised, shifted non-negative
	Alpha    []float64   // signed dual coefficients (α·y)
	B        float64
	Gamma    float64
	Scaler   *ml.Scaler
	shift    float64
}

// Chi2Config controls kernelised dual-ascent training.
type Chi2Config struct {
	// MaxSupport bounds the support set (paper: 1,000).
	MaxSupport int
	// C is the box constraint. Zero selects 1.
	C float64
	// Gamma is the kernel bandwidth. Zero selects 1.
	Gamma float64
	// Epochs over the (subsampled) tuning set. Zero selects 10.
	Epochs int
	Seed   int64
}

// kernel evaluates the exponential χ² kernel on non-negative vectors.
func (c *Chi2) kernel(a, b []float64) float64 {
	s := 0.0
	for i, av := range a {
		bv := b[i]
		d := av - bv
		sum := av + bv
		if sum > 1e-12 {
			s += d * d / sum
		}
	}
	return math.Exp(-c.Gamma * s)
}

// margin computes the decision value for a prepared sample.
func (c *Chi2) margin(x []float64) float64 {
	z := c.B
	for i, sv := range c.SupportX {
		if c.Alpha[i] != 0 {
			z += c.Alpha[i] * c.kernel(sv, x)
		}
	}
	return z
}

// prepare standardises and shifts a raw sample into kernel space (χ²
// requires non-negative inputs).
func (c *Chi2) prepare(x []float64) []float64 {
	xs := c.Scaler.Apply(x, nil)
	for i := range xs {
		xs[i] += c.shift
		if xs[i] < 0 {
			xs[i] = 0
		}
	}
	return xs
}

// Score returns a sigmoid-calibrated confidence.
func (c *Chi2) Score(x []float64) float64 {
	return 1 / (1 + math.Exp(-2*c.margin(c.prepare(x))))
}

// NumSupport returns the number of retained support vectors.
func (c *Chi2) NumSupport() int {
	n := 0
	for _, a := range c.Alpha {
		if a != 0 {
			n++
		}
	}
	return n
}

// TrainChi2 fits the kernel SVM by stochastic dual ascent over a support
// budget: the candidate support set is a subsample of the tuning data of
// size MaxSupport, and dual coefficients are box-constrained to [0, C].
func TrainChi2(cfg Chi2Config, tune *ml.Dataset) (*Chi2, error) {
	if err := tune.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxSupport == 0 {
		cfg.MaxSupport = 1000
	}
	if cfg.C == 0 {
		cfg.C = 1
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = 1
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 10
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := rng.Perm(tune.Len())
	if len(idx) > cfg.MaxSupport {
		idx = idx[:cfg.MaxSupport]
	}
	sub := tune.Subset(idx)

	m := &Chi2{
		Gamma:  cfg.Gamma,
		Scaler: ml.FitScaler(sub),
		shift:  4, // standardised features mostly lie in (-4, 4)
	}
	m.SupportX = make([][]float64, sub.Len())
	ys := make([]float64, sub.Len())
	for i, x := range sub.X {
		m.SupportX[i] = m.prepare(x)
		ys[i] = 2*float64(sub.Y[i]) - 1
	}
	m.Alpha = make([]float64, sub.Len())

	// Stochastic dual ascent with margin-driven updates.
	order := rng.Perm(sub.Len())
	const lr = 0.3
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			g := ys[i] * m.margin(m.SupportX[i])
			if g < 1 {
				// Increase this sample's contribution toward its label.
				a := m.Alpha[i] + lr*ys[i]
				if ys[i] > 0 && a > cfg.C {
					a = cfg.C
				}
				if ys[i] < 0 && a < -cfg.C {
					a = -cfg.C
				}
				m.Alpha[i] = a
				m.B += 0.01 * lr * ys[i]
			}
		}
	}

	// Compact: drop zero-α vectors.
	var keepX [][]float64
	var keepA []float64
	for i, a := range m.Alpha {
		if a != 0 {
			keepX = append(keepX, m.SupportX[i])
			keepA = append(keepA, a)
		}
	}
	if len(keepX) == 0 {
		return nil, fmt.Errorf("svm: χ² training retained no support vectors")
	}
	m.SupportX = keepX
	m.Alpha = keepA
	return m, nil
}
