package core

import (
	"clustergate/internal/dataset"
	"clustergate/internal/power"
	"clustergate/internal/trace"
)

// SimMode names the simulation path a SimOracle runs deployments on.
type SimMode string

// The three oracle modes: exact is the cycle-level simulator
// (byte-identical to calling DeployWithOptions directly), surrogate is
// the spliced-replay fast path, and validate is the fast path plus seeded
// exact spot checks that enforce an error budget. All three run the same
// decision loop (DeployFrom); they differ only in its interval source.
const (
	SimExact     SimMode = "exact"
	SimSurrogate SimMode = "surrogate"
	SimValidate  SimMode = "validate"
)

// SimOracle is the single seam through which the soak-dominated paths —
// corpus evaluation, guardrail and fleet sweeps, pristine soaks — reach
// the simulator, so exact/surrogate/validate mode selection lives in one
// place. Deploy runs one closed-loop deployment. Fixed-mode recordings
// are not behind the seam: they are the surrogate's own input, always
// exact, and callers take them from dataset.SimulateCorpusCached.
type SimOracle interface {
	Mode() SimMode
	Deploy(g *GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
		cfg dataset.Config, pm *power.Model, opts DeployOptions) (*GuardedDeploymentResult, error)
}

// ExactOracle is the exact cycle-level simulator behind the SimOracle
// seam: thin delegation to DeployWithOptions, byte-identical to calling
// it directly.
type ExactOracle struct{}

// Mode returns SimExact.
func (ExactOracle) Mode() SimMode { return SimExact }

// Deploy delegates to DeployWithOptions.
func (ExactOracle) Deploy(g *GatingController, tr *trace.Trace, ref *dataset.TraceTelemetry,
	cfg dataset.Config, pm *power.Model, opts DeployOptions) (*GuardedDeploymentResult, error) {
	return DeployWithOptions(g, tr, ref, cfg, pm, opts)
}
