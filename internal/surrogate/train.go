package surrogate

import (
	"fmt"
	"math"
	"sort"

	"clustergate/internal/dataset"
	"clustergate/internal/metrics"
	"clustergate/internal/ml"
	"clustergate/internal/ml/forest"
	"clustergate/internal/ml/linear"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// TrainOptions controls surrogate training. The zero value selects the
// documented defaults.
type TrainOptions struct {
	// Workers fans the per-trace forced-schedule runs out (0 = all cores).
	Workers int
	// MaxTraces caps how many corpus traces generate training intervals
	// (selected evenly across the corpus). Zero selects 48.
	MaxTraces int
	// Seed drives the forced derate pattern and the forest's bootstrap
	// sampling.
	Seed int64
	// SwitchPeriod is the interval count between forced mode toggles in
	// the training schedule; small values concentrate samples on switch
	// transients. Zero selects 5.
	SwitchPeriod int
	// Forest overrides the regression-forest configuration; the zero
	// value selects 24 trees of depth 6.
	Forest forest.RegConfig
	// Lambda is the ridge penalty. Zero selects the linear package default.
	Lambda float64
}

func (o *TrainOptions) defaults() {
	if o.MaxTraces == 0 {
		o.MaxTraces = 80
	}
	if o.SwitchPeriod == 0 {
		o.SwitchPeriod = 5
	}
	if o.Forest.NumTrees == 0 {
		o.Forest.NumTrees = 32
	}
	if o.Forest.MaxDepth == 0 {
		o.Forest.MaxDepth = 7
	}
	if o.Forest.Seed == 0 {
		o.Forest.Seed = o.Seed ^ 0x72657369 // "resi"
	}
}

// sample is one training interval: residual features and the observed
// relative cycle error of the analytic splice.
type sample struct {
	f []float64
	y float64
}

// Train fits a surrogate to a corpus whose fixed-mode recordings tel have
// already been simulated (the memoised soak cache supplies them for
// free). For an even subset of traces it runs one extra exact simulation
// under a forced schedule — mode toggles every SwitchPeriod intervals and
// a deterministic DRAM-derate pattern — so the residual sees exactly the
// regimes the splice gets wrong: switch transients and derated intervals.
// Forest and ridge backends are fitted on even-indexed traces, scored on
// odd-indexed holdout traces, and the lower-MAE backend wins.
//
// Training is deterministic for a fixed (corpus, cfg, options) at any
// worker count.
func Train(c *trace.Corpus, tel []*dataset.TraceTelemetry, cfg dataset.Config, opt TrainOptions) (*Model, error) {
	defer obs.Start("surrogate.train").End()
	if len(c.Traces) != len(tel) {
		return nil, fmt.Errorf("surrogate: %d traces but %d telemetry records", len(c.Traces), len(tel))
	}
	if len(c.Traces) == 0 {
		return nil, fmt.Errorf("surrogate: empty corpus")
	}
	opt.defaults()

	// Even selection of up to MaxTraces traces across the corpus.
	sel := make([]int, 0, opt.MaxTraces)
	stride := float64(len(c.Traces)) / float64(opt.MaxTraces)
	if stride < 1 {
		stride = 1
	}
	for p := 0.0; int(p) < len(c.Traces) && len(sel) < opt.MaxTraces; p += stride {
		sel = append(sel, int(p))
	}

	perTrace, err := parallel.Map(opt.Workers, len(sel), func(i int) ([]sample, error) {
		ti := sel[i]
		return traceSamples(c.Traces[ti], tel[ti], cfg, opt)
	})
	if err != nil {
		return nil, err
	}

	train, holdout := &ml.RegDataset{}, &ml.RegDataset{}
	for i, ss := range perTrace {
		dst := train
		if i%2 == 1 {
			dst = holdout
		}
		for _, s := range ss {
			dst.X = append(dst.X, s.f)
			dst.Y = append(dst.Y, s.y)
		}
	}
	if holdout.Len() == 0 {
		holdout = train // single-trace corpora: score in-sample
	}
	total := train.Len() + holdout.Len()
	if holdout == train {
		total = train.Len()
	}
	if train.Len() < 2*len(FeatureNames) {
		return nil, fmt.Errorf("surrogate: only %d training samples for %d features", train.Len(), len(FeatureNames))
	}

	m := &Model{
		FeatureVersion: FeatureVersion,
		Fingerprint:    Fingerprint(cfg),
		Samples:        total,
	}
	rf, err := forest.TrainReg(opt.Forest, train)
	if err != nil {
		return nil, fmt.Errorf("surrogate: forest backend: %w", err)
	}
	m.Backend, m.Forest = "forest", rf
	m.HoldoutMAE = ml.MAE(rf, holdout)
	// The ridge fit can fail on degenerate (constant-feature) corpora;
	// the forest always stands, so that is a skip, not an error.
	if ridge, err := linear.TrainRidge(linear.RidgeConfig{Lambda: opt.Lambda}, train); err == nil {
		if mae := ml.MAE(ridge, holdout); mae < m.HoldoutMAE {
			m.Backend, m.Forest, m.Ridge = "ridge", nil, ridge
			m.HoldoutMAE = mae
		}
	}
	m.HoldoutP95 = holdoutP95(m, holdout)
	return m, nil
}

// holdoutP95 is the 95th percentile of the chosen backend's absolute
// residual error on the holdout set.
func holdoutP95(m *Model, d *ml.RegDataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	errs := make([]float64, d.Len())
	for i, x := range d.X {
		errs[i] = math.Abs(m.Residual(x) - d.Y[i])
	}
	sort.Float64s(errs)
	return metrics.Quantile(errs, 0.95)
}

// traceSamples runs one forced-schedule exact simulation of a trace and
// pairs every interval's observed base vector against the analytic splice
// of the pre-recorded steady-state telemetry, yielding one residual
// sample per interval.
func traceSamples(tr *trace.Trace, ref *dataset.TraceTelemetry, cfg dataset.Config, opt TrainOptions) ([]sample, error) {
	nInt := ref.Intervals()
	if nInt == 0 {
		return nil, nil
	}
	// The schedule runs once per trace, so the trace executes live: a tape
	// recorded for a single replay would only add a pass.
	run := uarch.NewRunner(cfg.Core, uarch.ModeHighPerf, trace.NewStream(tr), cfg.Warmup, cfg.Interval)

	mode := uarch.ModeHighPerf
	clock := newSwitchClock()
	out := make([]sample, 0, nInt)
	for gidx := 0; gidx < nInt; gidx++ {
		if gidx > 0 && gidx%opt.SwitchPeriod == 0 {
			if mode == uarch.ModeHighPerf {
				mode = uarch.ModeLowPower
			} else {
				mode = uarch.ModeHighPerf
			}
			run.SetMode(mode)
		}
		sinceSwitch := clock.next(mode)
		derate := forcedDerate(opt.Seed, tr.Seed, gidx)
		run.SetMemDerate(derate)

		delta, n := run.Next()
		if n < cfg.Interval {
			break // recordings only hold full intervals
		}
		trueBase := telemetry.ExtractBase(delta)

		rec := ref.HighPerf[gidx]
		if mode == uarch.ModeLowPower {
			rec = ref.LowPower[gidx]
		}
		spliced := Splice(rec.Base, mode, derate, sinceSwitch, &cfg.Core)
		y := trueBase[idxCycles]/spliced[idxCycles] - 1
		if y > 1 {
			y = 1
		} else if y < -1 {
			y = -1
		}
		out = append(out, sample{
			f: intervalFeatures(ref, gidx, mode, derate, sinceSwitch),
			y: y,
		})
	}
	return out, nil
}

// forcedDerate is the training schedule's deterministic DRAM-derate
// pattern: most intervals run nominal, ~12% run derated at one of the
// fault plans' typical factors, so the residual sees the derate response
// without depending on any particular fault plan.
func forcedDerate(seed, traceSeed int64, gidx int) float64 {
	if hash01(uint64(seed), uint64(traceSeed), uint64(gidx)) >= 0.12 {
		return 1
	}
	switch int(hash01(uint64(seed), uint64(traceSeed), uint64(gidx), 1) * 3) {
	case 0:
		return 2
	case 1:
		return 4
	default:
		return 6
	}
}
