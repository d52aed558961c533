// Package clustergate is a from-scratch reproduction of "Post-Silicon CPU
// Adaptation Made Practical Using Machine Learning" (Tarsa et al., ISCA
// 2019): an adaptive dual-cluster CPU whose issue width is set by machine-
// learning adaptation models running in microcontroller firmware.
//
// This root package is the public facade over the implementation packages:
//
//   - internal/trace      — synthetic workload and trace generation
//   - internal/uarch      — cycle-level dual-cluster out-of-order CPU model
//   - internal/telemetry  — the 936-counter telemetry subsystem
//   - internal/power      — event-based power model
//   - internal/mcu        — microcontroller budgets and firmware kernels
//   - internal/ml/...     — MLPs, random forests, logistic regression, SVMs
//   - internal/counters   — Perona-Freeman counter selection
//   - internal/dataset    — telemetry recording and t+2 labelling
//   - internal/metrics    — PGOS and RSV (Eqs. 1–4)
//   - internal/core       — the predictive cluster gating controller
//   - internal/experiments— the paper's tables and figures
//
// The quickest way in:
//
//	train := clustergate.BuildHDTR(clustergate.HDTRConfig{Apps: 100, Seed: 1})
//	cfg := clustergate.DefaultDatasetConfig()
//	tel := clustergate.SimulateCorpus(train, cfg)
//	ctl, err := clustergate.BuildBestRF(clustergate.BuildInputs{ ... })
//	sum, err := clustergate.EvaluateOnCorpus(ctl, test, testTel, cfg, clustergate.DefaultPowerModel())
//
// See examples/quickstart for the complete flow and cmd/paperbench for the
// full evaluation harness.
package clustergate

import (
	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/mcu"
	"clustergate/internal/power"
	"clustergate/internal/telemetry"
	"clustergate/internal/trace"
	"clustergate/internal/uarch"
)

// Workload generation.
type (
	// Corpus is a set of applications and recorded traces.
	Corpus = trace.Corpus
	// HDTRConfig sizes the high-diversity training corpus (Table 1).
	HDTRConfig = trace.HDTRConfig
	// SPECConfig sizes the SPEC2017-like held-out test corpus (Table 2).
	SPECConfig = trace.SPECConfig
)

// BuildHDTR generates the high-diversity training corpus.
func BuildHDTR(cfg HDTRConfig) *Corpus { return trace.BuildHDTR(cfg) }

// BuildSPEC generates the held-out SPEC2017-like test corpus.
func BuildSPEC(cfg SPECConfig) *Corpus { return trace.BuildSPEC(cfg) }

// Simulation and telemetry.
type (
	// DatasetConfig controls telemetry recording granularity and warmup.
	DatasetConfig = dataset.Config
	// TraceTelemetry holds one trace's fixed-mode recordings.
	TraceTelemetry = dataset.TraceTelemetry
	// SLA is the service-level agreement (Section 3.1).
	SLA = dataset.SLA
	// CounterSet is the synthesised 936-counter telemetry space.
	CounterSet = telemetry.CounterSet
	// CoreConfig holds the CPU's microarchitectural parameters.
	CoreConfig = uarch.Config
	// Mode selects the cluster configuration.
	Mode = uarch.Mode
)

// Cluster configurations.
const (
	ModeHighPerf = uarch.ModeHighPerf
	ModeLowPower = uarch.ModeLowPower
)

// DefaultDatasetConfig returns the paper's recording parameters (10k-
// instruction intervals).
func DefaultDatasetConfig() DatasetConfig { return dataset.DefaultConfig() }

// DefaultCoreConfig returns the scaled-SkyLake CPU parameters.
func DefaultCoreConfig() CoreConfig { return uarch.DefaultConfig() }

// NewStandardCounterSet builds the 936-counter telemetry space.
func NewStandardCounterSet() *CounterSet { return telemetry.NewStandardCounterSet() }

// Table4Names returns the 12 counters of the paper's Table 4.
func Table4Names() []string { return telemetry.Table4Names() }

// SimulateCorpus records fixed-mode telemetry for every trace of a corpus.
func SimulateCorpus(c *Corpus, cfg DatasetConfig) []*TraceTelemetry {
	return dataset.SimulateCorpus(c, cfg)
}

// The adaptive CPU.
type (
	// GatingController is a deployed adaptation configuration: per-mode
	// firmware models, calibrated thresholds, and prediction granularity.
	GatingController = core.GatingController
	// BuildInputs parameterises controller training.
	BuildInputs = core.BuildInputs
	// DeploymentResult reports one closed-loop trace run.
	DeploymentResult = core.DeploymentResult
	// Summary aggregates a corpus-level deployment evaluation.
	Summary = core.Summary
	// MCUSpec describes the microcontroller budget (Table 3).
	MCUSpec = mcu.Spec
	// PowerModel is the event-based core power model.
	PowerModel = power.Model
)

// DefaultMCUSpec returns the paper's 500 MIPS microcontroller pairing.
func DefaultMCUSpec() MCUSpec { return mcu.DefaultSpec() }

// DefaultPowerModel returns the calibrated SkyLake-style power weights.
func DefaultPowerModel() *PowerModel { return power.DefaultModel() }

// ColumnsByName resolves counter names to counter-set column indices.
func ColumnsByName(cs *CounterSet, names []string) ([]int, error) {
	return core.ColumnsByName(cs, names)
}

// BuildBestRF trains the paper's best model (8×8 random forest pair).
func BuildBestRF(in BuildInputs) (*GatingController, error) { return core.BuildBestRF(in) }

// BuildBestMLP trains the paper's best neural network (8/8/4 MLP pair).
func BuildBestMLP(in BuildInputs) (*GatingController, error) { return core.BuildBestMLP(in) }

// BuildCHARSTAR trains the CHARSTAR baseline of Ravi et al.
func BuildCHARSTAR(in BuildInputs) (*GatingController, error) { return core.BuildCHARSTAR(in) }

// RetrainSLA retargets Best RF firmware to a different SLA (Table 5).
func RetrainSLA(in BuildInputs, psla float64) (*GatingController, error) {
	return core.RetrainSLA(in, psla)
}

// BuildAppSpecificRF grafts application-specific trees onto the general
// forest (Table 6).
func BuildAppSpecificRF(in BuildInputs, appTel []*TraceTelemetry, name string) (*GatingController, error) {
	return core.BuildAppSpecificRF(in, appTel, name)
}

// Deploy runs a controller closed-loop over one trace on the cycle model.
func Deploy(g *GatingController, tr *trace.Trace, ref *TraceTelemetry,
	cfg DatasetConfig, pm *PowerModel) (*DeploymentResult, error) {
	r, err := core.DeployWithOptions(g, tr, ref, cfg, pm, core.DeployOptions{})
	if err != nil {
		return nil, err
	}
	return &r.DeploymentResult, nil
}

// EvaluateOnCorpus deploys a controller on every trace of a corpus on the
// cycle model.
func EvaluateOnCorpus(g *GatingController, c *Corpus, tel []*TraceTelemetry,
	cfg DatasetConfig, pm *PowerModel) (*Summary, error) {
	return core.EvaluateOnCorpus(core.ExactOracle{}, g, c, tel, cfg, pm)
}

// OracleResidency returns the ideal low-power residency under an SLA
// (Figure 7).
func OracleResidency(tel []*TraceTelemetry, sla SLA) float64 {
	return dataset.OracleResidency(tel, sla)
}
