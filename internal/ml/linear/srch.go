package linear

import (
	"fmt"
	"math"
	"sort"

	"clustergate/internal/ml"
)

// SRCH implements Softmax Regression on Counter Histograms, the adaptation
// model of Dubach et al. (Section 7): each counter's samples over a window
// are histogrammed into B buckets; the concatenated histograms feed a
// regression. With only two cluster configurations the softmax reduces to
// a logistic regression.
type SRCH struct {
	// Edges[c] holds the B-1 interior bucket edges for counter c, fit to
	// tuning-data percentiles.
	Edges   [][]float64
	Buckets int
	// Window is how many consecutive counter samples are histogrammed per
	// prediction.
	Window int
	LR     *Logistic
}

// SRCHConfig controls training.
type SRCHConfig struct {
	// Buckets per counter histogram. Zero selects the paper's 10.
	Buckets int
	// Window is the number of 10k-instruction samples aggregated per
	// histogram. 1 histogram-encodes each sample alone.
	Window int
	// Logistic regression settings.
	LR Config
}

// Featurize histogram-encodes a window of raw counter samples (each sample
// is one counter vector) into the model's feature space.
func (s *SRCH) Featurize(window [][]float64) []float64 {
	nC := len(s.Edges)
	out := make([]float64, nC*s.Buckets)
	if len(window) == 0 {
		return out
	}
	for _, sample := range window {
		for c := 0; c < nC; c++ {
			b := bucketOf(sample[c], s.Edges[c])
			out[c*s.Buckets+b]++
		}
	}
	inv := 1 / float64(len(window))
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Score histogram-encodes a single sample and applies the regression. For
// windowed operation use ScoreWindow.
func (s *SRCH) Score(x []float64) float64 {
	return s.LR.Score(s.Featurize([][]float64{x}))
}

// CheckShape reports an error unless the model can score every window of
// samples of the given width: at least one bucket, one edge row per
// input with at most Buckets-1 interior edges, and a regression layer
// that passes Logistic.CheckShape over the histogram features. A model
// decoded from untrusted bytes that fails it would index out of range at
// inference.
func (s *SRCH) CheckShape(inputs int) error {
	if s.Buckets < 1 {
		return fmt.Errorf("srch: %d buckets", s.Buckets)
	}
	if len(s.Edges) != inputs {
		return fmt.Errorf("srch: %d edge rows for %d inputs", len(s.Edges), inputs)
	}
	for c, e := range s.Edges {
		if len(e) > s.Buckets-1 {
			return fmt.Errorf("srch: counter %d has %d edges for %d buckets", c, len(e), s.Buckets)
		}
	}
	// Divide rather than multiply: a decoded bucket count may overflow int.
	if inputs > 0 && s.Buckets > math.MaxInt/inputs {
		return fmt.Errorf("srch: %d buckets for %d inputs overflow", s.Buckets, inputs)
	}
	if s.LR == nil {
		return fmt.Errorf("srch: no regression layer")
	}
	if err := s.LR.CheckShape(inputs * s.Buckets); err != nil {
		return fmt.Errorf("srch: %w", err)
	}
	return nil
}

// ScoreWindow scores a window of consecutive samples.
func (s *SRCH) ScoreWindow(window [][]float64) float64 {
	return s.LR.Score(s.Featurize(window))
}

func bucketOf(v float64, edges []float64) int {
	// Binary search over interior edges.
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if v > edges[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TrainSRCH fits bucket edges to per-counter percentiles of the tuning set
// and trains the logistic layer on histogram features.
func TrainSRCH(cfg SRCHConfig, tune *ml.Dataset) (*SRCH, error) {
	if err := tune.Validate(); err != nil {
		return nil, err
	}
	if cfg.Buckets == 0 {
		cfg.Buckets = 10
	}
	if cfg.Window == 0 {
		cfg.Window = 1
	}
	nC := len(tune.X[0])

	s := &SRCH{Buckets: cfg.Buckets, Window: cfg.Window}
	s.Edges = make([][]float64, nC)
	col := make([]float64, tune.Len())
	for c := 0; c < nC; c++ {
		for i, x := range tune.X {
			col[i] = x[c]
		}
		sort.Float64s(col)
		edges := make([]float64, cfg.Buckets-1)
		for b := 1; b < cfg.Buckets; b++ {
			q := float64(b) / float64(cfg.Buckets)
			edges[b-1] = col[int(q*float64(len(col)-1))]
		}
		s.Edges[c] = edges
	}

	// Build histogram features per training sample (window of 1 during
	// training; windows at inference average the same encoding).
	feat := &ml.Dataset{
		X:   make([][]float64, tune.Len()),
		Y:   tune.Y,
		App: tune.App,
	}
	for i, x := range tune.X {
		feat.X[i] = s.Featurize([][]float64{x})
	}
	lr, err := Train(cfg.LR, feat)
	if err != nil {
		return nil, fmt.Errorf("srch: %w", err)
	}
	s.LR = lr
	return s, nil
}

// NumFeatures returns the histogram feature dimensionality.
func (s *SRCH) NumFeatures() int { return len(s.Edges) * s.Buckets }

// quantile helper exported for tests.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
