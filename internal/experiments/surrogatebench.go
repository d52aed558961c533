package experiments

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/obs"
	"clustergate/internal/surrogate"
)

// SurrogateBenchResult compares the surrogate replay against the exact
// simulator on the test corpus: per-deployment latency, relative-IPC
// error distribution, and gating-decision agreement.
type SurrogateBenchResult struct {
	Traces  int
	Deploys int

	// Per-deployment wall-clock, nanoseconds. Timing fields never reach
	// stdout — only BENCH_surrogate.json — so exact-mode output stays
	// byte-identical across machines. The first deployment of a trace on
	// each path builds what later ones reuse (the exact path records the
	// tape and simulates into the deployment trie, the surrogate fills the
	// residual table); the repeat is an identical deployment served from
	// them. Speedup compares first deployments, RepeatSpeedup repeats.
	ExactNSPerDeploy        float64
	ExactRepeatNSPerDeploy  float64
	ReplayNSPerDeploy       float64
	ReplayRepeatNSPerDeploy float64
	Speedup                 float64
	RepeatSpeedup           float64

	// Relative IPC error of the surrogate's adaptive span vs exact.
	ErrP50, ErrP95, ErrMax float64
	// PredAgree is the fraction of prediction windows where surrogate and
	// exact deployments chose the same configuration.
	PredAgree float64

	Budget       float64
	WithinBudget bool

	TrainBackend string
	TrainSamples int
}

// SurrogateBench deploys the controller on every test trace through the
// exact simulator and through the surrogate replay, twice each: the first
// deployment of the trace on a path and an identical repeat are timed
// apart, and the repeat must return the first's result. The pair reduces
// into accuracy and latency figures. The first deployments are cold only
// when nothing earlier in the process deployed the test traces, as when
// the bench runs alone.
func SurrogateBench(e *Env, m *surrogate.Model, g *core.GatingController, budget float64) (*SurrogateBenchResult, error) {
	defer obs.Start("surrogate.bench").End()
	if budget <= 0 {
		budget = 0.05
	}
	res := &SurrogateBenchResult{
		Traces:       len(e.SPEC.Traces),
		Budget:       budget,
		TrainBackend: m.Backend,
		TrainSamples: m.Samples,
	}

	var errs []float64
	var agree, windows int
	var exactFirst, exactRepeat, replayFirst, replayRepeat time.Duration
	for i, tr := range e.SPEC.Traces {
		exact, first, repeat, err := deployTwice(func() (*core.GuardedDeploymentResult, error) {
			return core.DeployWithOptions(g, tr, e.SPECTel[i], e.Cfg, e.PM, core.DeployOptions{})
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: surrogate-bench exact %s: %w", tr.Name, err)
		}
		exactFirst, exactRepeat = exactFirst+first, exactRepeat+repeat

		sur, first, repeat, err := deployTwice(func() (*core.GuardedDeploymentResult, error) {
			return m.Replay(g, tr, e.SPECTel[i], e.Cfg, e.PM, core.DeployOptions{})
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: surrogate-bench replay %s: %w", tr.Name, err)
		}
		replayFirst, replayRepeat = replayFirst+first, replayRepeat+repeat
		res.Deploys++

		if ipc := exact.Adaptive.IPC(); ipc > 0 {
			errs = append(errs, math.Abs(sur.Adaptive.IPC()/ipc-1))
		}
		for w := range exact.Pred {
			windows++
			if w < len(sur.Pred) && sur.Pred[w] == exact.Pred[w] {
				agree++
			}
		}
	}
	if n := float64(res.Deploys); n > 0 {
		res.ExactNSPerDeploy = float64(exactFirst) / n
		res.ExactRepeatNSPerDeploy = float64(exactRepeat) / n
		res.ReplayNSPerDeploy = float64(replayFirst) / n
		res.ReplayRepeatNSPerDeploy = float64(replayRepeat) / n
		if replayFirst > 0 {
			res.Speedup = float64(exactFirst) / float64(replayFirst)
		}
		if replayRepeat > 0 {
			res.RepeatSpeedup = float64(exactRepeat) / float64(replayRepeat)
		}
	}
	if len(errs) > 0 {
		sort.Float64s(errs)
		res.ErrP50 = quantileAt(errs, 0.50)
		res.ErrP95 = quantileAt(errs, 0.95)
		res.ErrMax = errs[len(errs)-1]
	}
	if windows > 0 {
		res.PredAgree = float64(agree) / float64(windows)
	}
	res.WithinBudget = res.ErrP95 <= budget
	e.logf("surrogate-bench: %d deploys, %.1fx speedup (%.1fx on repeats), p95 err %.4f",
		res.Deploys, res.Speedup, res.RepeatSpeedup, res.ErrP95)
	return res, nil
}

// deployTwice runs a deployment, then an identical repeat that must return
// the same result, and times the two apart.
func deployTwice(deploy func() (*core.GuardedDeploymentResult, error)) (res *core.GuardedDeploymentResult, first, repeat time.Duration, err error) {
	t0 := time.Now()
	if res, err = deploy(); err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	again, err := deploy()
	if err != nil {
		return nil, 0, 0, err
	}
	first, repeat = t1.Sub(t0), time.Since(t1)
	if !reflect.DeepEqual(res, again) {
		return nil, 0, 0, fmt.Errorf("repeated deployment differs from the first")
	}
	return res, first, repeat, nil
}

// quantileAt reads quantile q from an ascending-sorted slice using the
// same ceil convention as the surrogate trainer's holdout percentile.
func quantileAt(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// PrintSurrogateBench renders the deterministic half of the comparison:
// accuracy and agreement, never timings (those live in the JSON artifact
// so stdout stays machine-independent).
func PrintSurrogateBench(w io.Writer, r *SurrogateBenchResult) {
	fmt.Fprintln(w, "Surrogate vs exact simulator (test corpus)")
	fmt.Fprintf(w, "  traces %d  deploys %d  backend %s (%d samples)\n",
		r.Traces, r.Deploys, r.TrainBackend, r.TrainSamples)
	fmt.Fprintf(w, "  rel IPC error: p50 %.4f  p95 %.4f  max %.4f (budget %.2f, within=%v)\n",
		r.ErrP50, r.ErrP95, r.ErrMax, r.Budget, r.WithinBudget)
	fmt.Fprintf(w, "  prediction agreement: %.1f%%\n", 100*r.PredAgree)
}
