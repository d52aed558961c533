package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/metrics"
	"clustergate/internal/ml"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
	"clustergate/internal/uarch"
)

// Cross-validation observability: folds trained and evaluated across all
// screens, for run manifests. Screens open leaf spans (Screen is called
// from sweep workers, so spans must not perturb sequential nesting).
var foldsExecuted = obs.NewCounter("experiments.folds")

// Scorer is any trained point model.
type Scorer interface{ Score([]float64) float64 }

// Trainer fits a model to a tuning set.
type Trainer func(tune *ml.Dataset, seed int64) (Scorer, error)

// FoldStats summarises a metric's distribution across folds.
type FoldStats struct {
	Mean, Std float64
}

// ScreenResult is one model configuration's cross-validation outcome
// (Sections 6.1–6.3 evaluate candidates this way).
type ScreenResult struct {
	PGOS FoldStats
	RSV  FoldStats
	FPR  FoldStats
}

// lowPowerTraces labels HDTR telemetry from low-power-mode counters — the
// harder prediction problem the paper's Section 6 screens train on.
func (e *Env) lowPowerTraces(cols []int) []*dataset.LabeledTrace {
	return dataset.BuildLabeled(e.HDTRTel, e.CS, dataset.BuildOptions{
		Mode:    uarch.ModeLowPower,
		SLA:     dataset.SLA{PSLA: 0.9},
		Columns: cols,
	})
}

// baseWindow is the SLA window at the 10k-instruction screening
// granularity.
func (e *Env) baseWindow() metrics.SLAWindow {
	return metrics.SLAWindow{W: core.SLAWindowInstrs / e.Cfg.Interval}
}

// evalOnTraces scores every sample of the labelled traces at the threshold
// and returns (PGOS, RSV, FPR).
func evalOnTraces(m Scorer, lts []*dataset.LabeledTrace, thr float64, win metrics.SLAWindow) (pgos, rsv, fpr float64) {
	var conf metrics.Confusion
	windows, violations := 0, 0
	for _, lt := range lts {
		pred := make([]int, len(lt.X))
		for i, x := range lt.X {
			if m.Score(x) >= thr {
				pred[i] = 1
			}
			conf.Add(pred[i], lt.Y[i])
		}
		n, v := metrics.WindowTally(pred, lt.Y, win.W)
		windows += n
		violations += v
	}
	if windows > 0 {
		rsv = float64(violations) / float64(windows)
	}
	return conf.PGOS(), rsv, conf.FPR()
}

// splitTraces partitions labelled traces by application: a fixed
// validation fraction, and a tuning set capped at tuneApps applications
// (tuneApps ≤ 0 uses every non-validation application). This implements
// the Figure 4 protocol: validation size fixed at 20% of applications,
// tuning diversity swept.
func splitTraces(lts []*dataset.LabeledTrace, valFrac float64, tuneApps int, seed int64) (tune, val []*dataset.LabeledTrace) {
	appSet := map[string]bool{}
	for _, lt := range lts {
		appSet[lt.App] = true
	}
	apps := make([]string, 0, len(appSet))
	for a := range appSet {
		apps = append(apps, a)
	}
	// Map iteration order is random; sort for determinism before shuffling.
	sort.Strings(apps)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })

	nVal := int(float64(len(apps))*valFrac + 0.5)
	if nVal < 1 {
		nVal = 1
	}
	valApps := map[string]bool{}
	for _, a := range apps[:nVal] {
		valApps[a] = true
	}
	tuneSet := map[string]bool{}
	limit := len(apps) - nVal
	if tuneApps > 0 && tuneApps < limit {
		limit = tuneApps
	}
	for _, a := range apps[nVal : nVal+limit] {
		tuneSet[a] = true
	}
	for _, lt := range lts {
		switch {
		case valApps[lt.App]:
			val = append(val, lt)
		case tuneSet[lt.App]:
			tune = append(tune, lt)
		}
	}
	return tune, val
}

// Screen cross-validates a trainer: for each fold, train on up to
// tuneApps applications and measure PGOS/RSV/FPR on held-out validation
// applications at the given threshold.
//
// Folds are fully determined by their index (split and training seeds
// derive from e.Seed and the fold number), so they fan out over
// e.Cfg.Workers workers; the fold statistics are then folded serially in
// fold order, keeping the result bit-identical at any worker count.
func (e *Env) Screen(train Trainer, lts []*dataset.LabeledTrace, tuneApps int, thr float64) (ScreenResult, error) {
	type foldResult struct {
		pgos, rsv, fpr float64
	}
	sp := obs.StartLeaf("screen")
	defer sp.End()
	win := e.baseWindow()
	folds, err := parallel.Map(e.Cfg.Workers, e.Scale.Folds, func(f int) (foldResult, error) {
		defer foldsExecuted.Inc()
		tuneTr, valTr := splitTraces(lts, 0.2, tuneApps, e.Seed+int64(f)*7919)
		tune := dataset.Flatten(tuneTr, false)
		if tune.Len() == 0 || len(valTr) == 0 {
			return foldResult{}, fmt.Errorf("experiments: empty fold (tuneApps=%d)", tuneApps)
		}
		m, err := train(tune, e.Seed+int64(f))
		if err != nil {
			return foldResult{}, err
		}
		pgos, rsv, fpr := evalOnTraces(m, valTr, thr, win)
		return foldResult{pgos: pgos, rsv: rsv, fpr: fpr}, nil
	})
	if err != nil {
		return ScreenResult{}, err
	}
	pgoss := make([]float64, len(folds))
	rsvs := make([]float64, len(folds))
	fprs := make([]float64, len(folds))
	for f, fr := range folds {
		pgoss[f], rsvs[f], fprs[f] = fr.pgos, fr.rsv, fr.fpr
	}
	var res ScreenResult
	res.PGOS.Mean, res.PGOS.Std = metrics.MeanStd(pgoss)
	res.RSV.Mean, res.RSV.Std = metrics.MeanStd(rsvs)
	res.FPR.Mean, res.FPR.Std = metrics.MeanStd(fprs)
	return res, nil
}
