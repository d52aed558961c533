// Package surrogate implements a learned simulator surrogate for the
// soak-dominated experiment paths: an analytical interval baseline spliced
// from recorded fixed-mode telemetry (issue-width floor, mode-switch
// microcode cost, DRAM-derate miss-latency bound) plus an ML residual
// trained on exact-simulator intervals via internal/ml (regression forest
// and ridge backends). The model is one more core.IntervalSource:
// deployments run core.DeployFrom's decision loop at interval granularity
// on its estimates instead of executing instructions, which makes the
// screening inner loops one to two orders of magnitude faster, and they
// record the same counters, flight samples and events as exact ones.
//
// The package exposes the three simulation modes behind core.SimOracle:
// exact (delegation to the cycle model, byte-identical), surrogate (the
// fast path), and validate (the fast path plus seeded exact spot checks
// that enforce a p95 relative-IPC error budget and fail the run loudly
// when it is exceeded). See docs/SURROGATE.md for the design, the feature
// schema, and the error-budget contract.
package surrogate

import (
	"fmt"

	"clustergate/internal/dataset"
	"clustergate/internal/obs"
)

// FeatureVersion identifies the surrogate feature schema. It participates
// in the model fingerprint, so a model trained under an older schema can
// never silently score new-schema features.
const FeatureVersion = 1

// Surrogate observability: replayed deployments, exact-simulator
// fallbacks/spot checks, and the validate-mode relative-IPC error
// distribution (observed in nanoseconds-as-error units: 1e9 ns ≡ 100%
// relative error, so the manifest's p95_ms reads as permille error).
var (
	surrogateHits     = obs.NewCounter("surrogate.hit")
	surrogateFallback = obs.NewCounter("surrogate.fallback")
	surrogateErr      = obs.NewHistogram("surrogate.err")
)

// Fingerprint identifies the simulator configuration a model was trained
// for: the core parameters, the interval geometry, and the feature schema
// version. Worker counts are excluded — they never change simulation
// results. Oracles fall back to the exact simulator on any mismatch.
func Fingerprint(cfg dataset.Config) string {
	return fmt.Sprintf("fv%d|interval=%d|warmup=%d|core=%+v",
		FeatureVersion, cfg.Interval, cfg.Warmup, cfg.Core)
}
