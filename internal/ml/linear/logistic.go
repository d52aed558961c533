// Package linear implements logistic regression trained with L-BFGS, and
// the SRCH baseline of Dubach et al. (softmax regression on counter
// histograms), which reduces to logistic regression on histogram features
// for the two-configuration cluster-gating problem.
package linear

import (
	"fmt"
	"math"

	"clustergate/internal/ml"
)

// Logistic is a trained logistic-regression model: sigmoid(w·x + b) over
// standardised features.
type Logistic struct {
	W      []float64
	B      float64
	Scaler *ml.Scaler
}

// CheckShape reports an error unless the model can score every input of
// the given width: it has a scaler, and its weights and the scaler's mean
// and standard deviation each have one entry per input. A model decoded
// from untrusted bytes that fails it would index out of range at
// inference.
func (l *Logistic) CheckShape(inputs int) error {
	if l.Scaler == nil || len(l.W) != inputs || len(l.Scaler.Mean) != inputs || len(l.Scaler.Std) != inputs {
		return fmt.Errorf("logistic: weights and scaler do not cover %d inputs", inputs)
	}
	return nil
}

// Score returns the positive-class probability.
func (l *Logistic) Score(x []float64) float64 {
	z := l.B
	xs := l.Scaler.Apply(x, nil)
	for i, v := range xs {
		z += l.W[i] * v
	}
	return 1 / (1 + math.Exp(-z))
}

// Config controls logistic-regression training.
type Config struct {
	// L2 is the ridge penalty. Zero selects 1e-4.
	L2 float64
	// MaxIter bounds L-BFGS iterations. Zero selects 100.
	MaxIter int
	// Memory is the L-BFGS history length. Zero selects 10.
	Memory int
}

// Train fits a logistic regression with L-BFGS (two-loop recursion with
// backtracking line search) minimising L2-regularised cross-entropy.
func Train(cfg Config, tune *ml.Dataset) (*Logistic, error) {
	if err := tune.Validate(); err != nil {
		return nil, err
	}
	if cfg.L2 == 0 {
		cfg.L2 = 1e-4
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 100
	}
	if cfg.Memory == 0 {
		cfg.Memory = 10
	}

	scaler := ml.FitScaler(tune)
	xs := make([][]float64, tune.Len())
	for i, x := range tune.X {
		xs[i] = scaler.Apply(x, nil)
	}
	dim := len(tune.X[0]) + 1 // weights plus bias as last element

	objective := func(theta []float64) (float64, []float64) {
		grad := make([]float64, dim)
		loss := 0.0
		for i, x := range xs {
			z := theta[dim-1]
			for j, v := range x {
				z += theta[j] * v
			}
			p := 1 / (1 + math.Exp(-z))
			y := float64(tune.Y[i])
			loss += crossEntropy(p, y)
			d := p - y
			for j, v := range x {
				grad[j] += d * v
			}
			grad[dim-1] += d
		}
		n := float64(len(xs))
		loss /= n
		for j := 0; j < dim-1; j++ {
			grad[j] = grad[j]/n + cfg.L2*theta[j]
			loss += 0.5 * cfg.L2 * theta[j] * theta[j]
		}
		grad[dim-1] /= n
		return loss, grad
	}

	theta := make([]float64, dim)
	lbfgs(objective, theta, cfg.MaxIter, cfg.Memory)

	return &Logistic{W: theta[:dim-1], B: theta[dim-1], Scaler: scaler}, nil
}

func crossEntropy(p, y float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return -(y*math.Log(p) + (1-y)*math.Log(1-p))
}

// lbfgs minimises f in place starting from theta using limited-memory BFGS
// with backtracking Armijo line search.
func lbfgs(f func([]float64) (float64, []float64), theta []float64, maxIter, memory int) {
	dim := len(theta)
	loss, grad := f(theta)

	var sHist, yHist [][]float64
	var rhoHist []float64
	dir := make([]float64, dim)

	for iter := 0; iter < maxIter; iter++ {
		// Two-loop recursion computes H·grad.
		copy(dir, grad)
		alphas := make([]float64, len(sHist))
		for i := len(sHist) - 1; i >= 0; i-- {
			alphas[i] = rhoHist[i] * dot(sHist[i], dir)
			axpy(dir, yHist[i], -alphas[i])
		}
		if len(sHist) > 0 {
			last := len(sHist) - 1
			gamma := dot(sHist[last], yHist[last]) / dot(yHist[last], yHist[last])
			scalev(dir, gamma)
		}
		for i := 0; i < len(sHist); i++ {
			beta := rhoHist[i] * dot(yHist[i], dir)
			axpy(dir, sHist[i], alphas[i]-beta)
		}
		scalev(dir, -1) // descent direction

		// Backtracking line search.
		g0 := dot(grad, dir)
		if g0 >= 0 { // not a descent direction; restart with -grad
			copy(dir, grad)
			scalev(dir, -1)
			g0 = dot(grad, dir)
		}
		step := 1.0
		trial := make([]float64, dim)
		var newLoss float64
		var newGrad []float64
		for ls := 0; ls < 30; ls++ {
			copy(trial, theta)
			axpy(trial, dir, step)
			newLoss, newGrad = f(trial)
			if newLoss <= loss+1e-4*step*g0 {
				break
			}
			step *= 0.5
		}

		s := make([]float64, dim)
		yv := make([]float64, dim)
		for j := range theta {
			s[j] = trial[j] - theta[j]
			yv[j] = newGrad[j] - grad[j]
		}
		copy(theta, trial)
		loss, grad = newLoss, newGrad

		sy := dot(s, yv)
		if sy > 1e-10 {
			sHist = append(sHist, s)
			yHist = append(yHist, yv)
			rhoHist = append(rhoHist, 1/sy)
			if len(sHist) > memory {
				sHist = sHist[1:]
				yHist = yHist[1:]
				rhoHist = rhoHist[1:]
			}
		}
		if norm(grad) < 1e-6 {
			break
		}
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func axpy(dst, src []float64, a float64) {
	for i := range dst {
		dst[i] += a * src[i]
	}
}

func scalev(v []float64, a float64) {
	for i := range v {
		v[i] *= a
	}
}

func norm(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// sanity check helper used by tests.
func checkFinite(v []float64) error {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("linear: element %d is %v", i, x)
		}
	}
	return nil
}
