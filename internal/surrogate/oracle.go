package surrogate

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/power"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// OracleOptions configures the surrogate/validate oracle. The zero value
// selects the documented defaults.
type OracleOptions struct {
	// SampleRate is the validate-mode exact spot-check fraction, decided
	// per trace by a stateless hash of the trace seed so the sample is
	// identical at any worker count. Zero selects 0.25.
	SampleRate float64
	// Budget is the p95 relative adaptive-IPC error bound Check enforces
	// in validate mode. Zero selects 0.05 (5%).
	Budget float64
	// Seed perturbs the spot-check hash so different runs can check
	// different traces.
	Seed int64
}

func (o *OracleOptions) defaults() {
	if o.SampleRate == 0 {
		o.SampleRate = 0.25
	}
	if o.Budget == 0 {
		o.Budget = 0.05
	}
}

// Oracle implements core.SimOracle over a trained surrogate Model. In
// surrogate mode deployments replay on the fast path; in validate mode a
// seeded fraction additionally re-runs on the exact simulator and the
// relative adaptive-IPC error feeds the surrogate.err histogram and the
// Check bound; in exact mode (and on any configuration-fingerprint
// mismatch) it falls back to the exact simulator, counting
// surrogate.fallback. SimulateCorpus is always exact: recordings are the
// surrogate's own input.
type Oracle struct {
	model *Model
	mode  core.SimMode
	opts  OracleOptions

	mu   sync.Mutex
	errs []float64

	// fits remembers, per configuration compared so far, whether the
	// model's fingerprint matches it: Fingerprint formats the core
	// configuration reflectively, too costly to repeat per deployment.
	fitsMu sync.Mutex
	fits   map[fingerprintKey]bool
}

// fingerprintKey holds Fingerprint's inputs.
type fingerprintKey struct {
	interval, warmup int
	core             uarch.Config
}

// NewOracle wraps a trained model in the given simulation mode.
func NewOracle(m *Model, mode core.SimMode, opts OracleOptions) *Oracle {
	opts.defaults()
	return &Oracle{model: m, mode: mode, opts: opts, fits: map[fingerprintKey]bool{}}
}

// matches reports whether the model was trained for cfg, comparing
// fingerprints once per configuration.
func (o *Oracle) matches(cfg dataset.Config) bool {
	key := fingerprintKey{cfg.Interval, cfg.Warmup, cfg.Core}
	o.fitsMu.Lock()
	defer o.fitsMu.Unlock()
	ok, seen := o.fits[key]
	if !seen {
		ok = o.model.Fingerprint == Fingerprint(cfg)
		o.fits[key] = ok
	}
	return ok
}

// Mode returns the oracle's simulation mode.
func (o *Oracle) Mode() core.SimMode { return o.mode }

// Model returns the trained surrogate model.
func (o *Oracle) Model() *Model { return o.model }

// Deploy routes one closed-loop deployment: fast-path replay in
// surrogate/validate mode (with seeded exact spot checks in validate),
// exact simulation in exact mode or when the model does not match the
// requested configuration.
func (o *Oracle) Deploy(g *core.GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, pm *power.Model, opts core.DeployOptions) (*core.GuardedDeploymentResult, error) {
	if o.mode == core.SimExact || o.model == nil || !o.matches(cfg) {
		surrogateFallback.Inc()
		return core.DeployWithOptions(g, tr, ref, cfg, pm, opts)
	}
	rep, err := o.model.Replay(g, tr, ref, cfg, pm, opts)
	if err != nil {
		return nil, err
	}
	surrogateHits.Inc()
	if o.mode == core.SimValidate && hash01(uint64(o.opts.Seed), uint64(tr.Seed), 0x5370) < o.opts.SampleRate {
		exact, err := core.DeployWithOptions(g, tr, ref, cfg, pm, opts)
		if err != nil {
			return nil, err
		}
		e := relIPCError(rep, exact)
		o.mu.Lock()
		o.errs = append(o.errs, e)
		o.mu.Unlock()
		// 1e9 ns ≡ 100% relative error, so manifest p95_ms reads as
		// permille error — which lets obsdiff gate error drift with the
		// same histogram machinery it gates timing with.
		surrogateErr.Observe(time.Duration(e * 1e9))
	}
	return rep, nil
}

// SimulateCorpus always records on the exact simulator (memoised when
// cacheDir is set); in non-exact modes the call counts as a fallback so
// manifests show how much exact work the surrogate still depends on.
func (o *Oracle) SimulateCorpus(c *trace.Corpus, cfg dataset.Config, cacheDir string) ([]*dataset.TraceTelemetry, error) {
	if o.mode != core.SimExact {
		surrogateFallback.Inc()
	}
	return dataset.SimulateCorpusCached(c, cfg, cacheDir)
}

// relIPCError is the relative adaptive-IPC disagreement between a
// surrogate replay and its exact re-run.
func relIPCError(sur, exact *core.GuardedDeploymentResult) float64 {
	ei := exact.Adaptive.IPC()
	if ei == 0 {
		return 0
	}
	return math.Abs(sur.Adaptive.IPC()/ei - 1)
}

// ErrorReport summarises validate-mode spot-check errors. Samples is the
// number of exact re-runs; percentiles are over the relative adaptive-IPC
// error, sorted, so the report is identical at any worker count.
type ErrorReport struct {
	Samples      int
	P50, P95Err  float64
	Max          float64
	Budget       float64
	WithinBudget bool
}

// Report returns the current spot-check error summary.
func (o *Oracle) Report() ErrorReport {
	o.mu.Lock()
	errs := append([]float64(nil), o.errs...)
	o.mu.Unlock()
	sort.Float64s(errs)
	r := ErrorReport{Samples: len(errs), Budget: o.opts.Budget}
	if len(errs) > 0 {
		r.P50 = percentile(errs, 0.50)
		r.P95Err = percentile(errs, 0.95)
		r.Max = errs[len(errs)-1]
	}
	r.WithinBudget = r.P95Err <= r.Budget
	return r
}

// Check enforces the validate-mode error budget: it returns an error when
// spot checks ran and their p95 relative adaptive-IPC error exceeds the
// budget. Callers run it once at end of run and must fail the run on a
// non-nil return — that is the "failing loudly" half of the contract.
func (o *Oracle) Check() error {
	r := o.Report()
	if r.Samples > 0 && !r.WithinBudget {
		return fmt.Errorf("surrogate: validate error budget exceeded: p95 relative IPC error %.4f > %.4f over %d spot checks",
			r.P95Err, r.Budget, r.Samples)
	}
	return nil
}
