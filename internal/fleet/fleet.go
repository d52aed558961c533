// Package fleet is the step layer of staged firmware rollouts across a
// simulated machine fleet — the deployment-at-scale half of the paper's
// Section 7.3 story, where trained adaptation models are patched into
// shipping CPUs through datacenter infrastructure management software.
// internal/ctrlplane composes these steps into the one rollout engine.
//
// A rollout flashes one sealed controller image (core.SaveController's
// CRC-enveloped format) across N machines in staged rings (canary → early
// → broad). FlashSpec.Flash is one machine's flash under a seeded
// transport model: attempts can transiently fail (retried at once) and
// the delivered payload can arrive bit-corrupted (fault.FlipBits).
// Machines that verify images reject corrupted payloads at the CRC
// envelope and re-request the transfer; machines on the legacy
// unverified pipeline install whatever arrives — the exposure a gated
// rollout exists to bound. Soaker soaks installed images on their
// assigned Workload slice under the guardrail-instrumented deploy loop,
// and GatePolicy judges a ring on its RingReport: CRC rejection rate,
// guardrail trips per machine, misgate rate, and the effective
// SLA-violation rate.
//
// Determinism matches internal/fault and internal/parallel: every
// transport decision is a pure function of (seed, machine, phase,
// attempt) via fault.HashU64, so a flash's outcome is the same whichever
// worker runs it, or when.
package fleet

import (
	"clustergate/internal/core"
	"clustergate/internal/dataset"
	"clustergate/internal/obs"
	"clustergate/internal/power"
	"clustergate/internal/trace"
)

// GatePolicy is the ring-promotion health gate: a ring is promoted only
// if every threshold holds over the ring's flash and soak telemetry.
// Gates are evaluated in two phases — the transport gate (machine crashes
// and the CRC rejection rate) right after flashing, then, for rings that
// pass it, the health gate (guardrail trips and effective SLA violations)
// after the soak — so a ring whose transport already failed is never
// soaked. The zero policy is no gate at all: ctrlplane promotes each ring
// of an ungated campaign as soon as it is flashed.
type GatePolicy struct {
	// MaxCRCRejectRate bounds the fraction of the ring's machines that
	// saw at least one CRC-rejected flash attempt (a transport-corruption
	// alarm even when retries eventually delivered a clean image).
	MaxCRCRejectRate float64
	// MaxTripsPerMachine bounds the mean guardrail trips per installed
	// machine during the ring's soak.
	MaxTripsPerMachine float64
	// MaxSLARate bounds the ring's effective SLA-violation rate (violated
	// soak windows / total soak windows).
	MaxSLARate float64
	// MaxMisgateRate bounds the ring's misgate rate: the fraction of soak
	// predictions whose SLA-optimal configuration was high-performance but
	// which the installed controller gated anyway (after any guardrail
	// override). This is the sharpest semantic-health signal — a healthy
	// controller misgates a small fraction of such predictions, a
	// miscalibrated one most of them — and the one a production rollout
	// would read from application-level SLO telemetry; the simulator reads
	// it from the oracle labels.
	MaxMisgateRate float64
}

// Workload is the fleet's assigned work: machine i soaks on trace
// i % len(Traces). Ungated rollouts never soak on it.
type Workload struct {
	Traces []*trace.Trace
	Tel    []*dataset.TraceTelemetry
	Cfg    dataset.Config
	PM     *power.Model
	// Oracle runs the soak deployments; nil selects the exact simulator.
	// Surrogate oracles make pristine-image soaks cheap while keeping the
	// health-gate decision logic unchanged.
	Oracle core.SimOracle
}

// RingReport is one ring's flash and soak telemetry as the promotion
// gate reads it.
type RingReport struct {
	// Size is the ring's machine count; Installed machines run the new
	// image; Crashes counts machines whose installed payload failed to
	// decode or deploy.
	Size, Installed, Crashes int
	// RejectedAttempts counts machines that saw at least one CRC-rejected
	// attempt — the transport gate's numerator.
	RejectedAttempts int
	// Quarantined counts installed machines held out of the health gate —
	// absent (churned away) or lease-expired at evaluation time — so gate
	// rates normalise over the live population only.
	Quarantined int
	// Soak health summed over the ring's machines.
	Trips                     int
	SLAWindows, SLAViolations int
	Misgated, Truth0          int
}

// SLARate is the ring's effective SLA-violation rate over its soak.
func (r *RingReport) SLARate() float64 {
	if r.SLAWindows == 0 {
		return 0
	}
	return float64(r.SLAViolations) / float64(r.SLAWindows)
}

// MisgateRate is the ring's soak misgate rate: the fraction of
// truth-high-performance predictions the installed image gated anyway.
func (r *RingReport) MisgateRate() float64 {
	if r.Truth0 == 0 {
		return 0
	}
	return float64(r.Misgated) / float64(r.Truth0)
}

// Step observability, for run manifests: transport counters plus
// latency histograms for individual flash attempts and whole-machine
// soaks (the two wall-clock phases of a ring). flashDecodes counts the
// image decodes actually run: one per spec for the shared untouched image
// plus one per corrupted payload that reached the decoder, so
// decodes/attempts is the flash step's decode miss rate.
var (
	flashAttempts = obs.NewCounter("fleet.flash.attempts")
	flashDecodes  = obs.NewCounter("fleet.flash.decodes")
	flashRetries  = obs.NewCounter("fleet.flash.retries")
	crcRejections = obs.NewCounter("fleet.crc.rejections")
	flashLatency  = obs.NewHistogram("fleet.flash.latency")
	soakDuration  = obs.NewHistogram("fleet.soak.duration")
)

// Transport-decision hash domains: each kind of draw mixes its own salt
// into the flash seed so schedules decorrelate.
const (
	saltFlash   = 0x666c7368 // "flsh": transient flash failures
	saltCorrupt = 0x636f7272 // "corr": payload corruption draws
	saltFlip    = 0x666c6970 // "flip": flip-position seeds
)
