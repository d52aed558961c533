// Package fleet simulates staged firmware rollouts across a simulated
// machine fleet — the deployment-at-scale half of the paper's Section 7.3
// story, where trained adaptation models are patched into shipping CPUs
// through datacenter infrastructure management software.
//
// A rollout flashes one sealed controller image (core.SaveController's
// CRC-enveloped format) across N machines in staged rings (canary → early
// → broad). Every flash is subject to a seeded transport model: attempts
// can transiently fail (retried with backoff through parallel.MapOpt) and
// the delivered payload can arrive bit-corrupted (fault.FlipBits).
// Machines that verify images reject corrupted payloads at the CRC
// envelope and re-request the transfer; machines on the legacy unverified
// pipeline install whatever arrives — the exposure the rollout controller
// exists to bound. After each gated ring installs, its machines soak the
// image on their assigned workload slice under the guardrail-instrumented
// deploy loop, and ring promotion is gated on the aggregated health
// telemetry: CRC rejection rate, guardrail trips per machine, and the
// effective SLA-violation rate. A failed gate halts the rollout and rolls
// every flashed machine back to the previous image, with rollback flashes
// subject to the same transient-failure model.
//
// Determinism matches internal/fault and internal/parallel: every
// transport decision is a pure function of (rollout seed, machine ID,
// phase, attempt) via a stateless splitmix64 hash, health folds in
// machine-ID order, and retried flashes recompute identical outcomes —
// Config.Workers changes wall clock only, never a byte of the Result.
package fleet

import (
	"fmt"

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
// soaked.
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

// Config describes one rollout.
type Config struct {
	// Name scopes this rollout's event-log entries and flight-recorder
	// samples (e.g. "fleet/verified-gated/good"); empty selects
	// "rollout-seed<Seed>". Purely observational — it never affects the
	// Result.
	Name string
	// Machines is the fleet size.
	Machines int
	// Rings are the staged ring sizes, canary first; they must sum to
	// Machines. Empty selects a single big-bang ring of the whole fleet.
	Rings []int
	// Verify selects the CRC-checked install path: corrupted payloads are
	// rejected at the envelope and the transfer is retried. False models
	// the legacy pipeline that installs whatever arrives.
	Verify bool
	// Gate enables staged promotion: each ring soaks after flashing and
	// is promoted only if the gate holds, otherwise the rollout halts and
	// rolls back. Nil disables soaking, gating, and rollback entirely
	// (a big-bang flash).
	Gate *GatePolicy
	// Guardrail instruments every soak deployment; zero fields take the
	// core defaults.
	Guardrail core.Guardrail
	// CorruptProb is the per-transfer probability that the delivered
	// payload arrives with CorruptBits seeded bit flips.
	CorruptProb float64
	// CorruptBits is how many bits a corrupted transfer flips; zero
	// selects 4.
	CorruptBits int
	// FlashFailProb is the per-attempt probability that a flash fails
	// transiently (power blip, agent timeout) and is retried.
	FlashFailProb float64
	// FlashRetries is how many extra attempts a failed flash gets (the
	// parallel.Options.Retries of the fan-out). The transient-failure
	// schedule never fails a machine's final attempt, so retries always
	// absorb transients; only CRC rejections can exhaust a machine.
	FlashRetries int
	// FlashPerStep is how many machines the infrastructure can flash per
	// time step; a ring of size s takes ceil(s/FlashPerStep) steps. Zero
	// flashes a whole ring in one step (gated rollouts may flash
	// aggressively because the gate bounds the blast radius).
	FlashPerStep int
	// SoakSteps is how many time steps each gated ring soaks before its
	// gate is evaluated; zero selects 1.
	SoakSteps int
	// Seed drives every transport decision (transient failures,
	// corruption draws, flip positions).
	Seed int64
	// Workers bounds the flash/soak fan-outs as in parallel.ForEach: 0
	// selects all cores, 1 the serial path. Results are identical at any
	// setting.
	Workers int
}

// Workload is the fleet's assigned work: machine i soaks on trace
// i % len(Traces). Required only for gated rollouts (ungated rollouts
// never soak).
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

// Machine is one machine's end-of-rollout state.
type Machine struct {
	ID   int
	Ring int
	// Flashed reports whether the machine ever installed the new image;
	// Installed whether it still runs it at the end (false after a
	// rollback or when every flash attempt was rejected).
	Flashed, Installed bool
	// RolledBack reports the machine was reverted to the previous image.
	RolledBack bool
	// Exposed reports the machine installed a bit-corrupted payload (only
	// possible on the unverified path).
	Exposed bool
	// Crashed reports the installed payload failed to decode or deploy —
	// the machine is down until rolled back.
	Crashed bool
	// FlashRetries and CRCRejects count this machine's transient flash
	// failures and CRC-rejected attempts (install phase).
	FlashRetries, CRCRejects int
	// Soak health: guardrail trips, effective SLA windows, and misgated
	// predictions (Misgated of Truth0 truth-high-perf predictions were
	// gated anyway) observed while soaking the new image.
	Trips                     int
	SLAWindows, SLAViolations int
	Misgated, Truth0          int
}

// RingReport aggregates one ring's flash and soak telemetry — the health
// signal the promotion gate is evaluated on.
type RingReport struct {
	Index, Size int
	// FlashWaves is how many time steps flashing the ring took.
	FlashWaves int
	// Installed machines run the new image; Rejected machines exhausted
	// every attempt on CRC rejections and kept the old image; Exposed
	// machines installed a corrupted payload; Crashes counts machines
	// whose installed payload failed to decode or deploy.
	Installed, Rejected, Exposed, Crashes int
	// RejectedAttempts counts machines that saw at least one CRC-rejected
	// attempt (the transport gate's numerator); FlashRetries and
	// CRCRejects total the ring's transient failures and rejected
	// attempts.
	RejectedAttempts, FlashRetries, CRCRejects int
	// Quarantined counts installed machines held out of the health gate —
	// absent (churned away) or lease-expired at evaluation time — so gate
	// rates normalise over the live population only. Always zero for
	// batch rollouts, which have no liveness layer.
	Quarantined int
	// Soaked reports the ring ran its soak phase; the health fields below
	// are zero otherwise.
	Soaked                    bool
	Trips                     int
	SLAWindows, SLAViolations int
	Misgated, Truth0          int
	// Promoted reports the gate held (always true for ungated rollouts);
	// GateFailure names the first violated threshold otherwise.
	Promoted    bool
	GateFailure string
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

// Result is one rollout's outcome.
type Result struct {
	Machines []Machine
	Rings    []RingReport
	// Completed reports every machine ended up on the new image.
	Completed bool
	// RolledBack reports a gate failed and the rollout reverted;
	// GateFailedRing is the failing ring's index (-1 otherwise) and
	// GateFailure the violated threshold.
	RolledBack     bool
	GateFailedRing int
	GateFailure    string
	// Flashed counts machines that ever installed the new image;
	// Installed those still on it at the end; Exposed those that
	// installed a corrupted payload; Rejected those that exhausted every
	// attempt on CRC rejections.
	Flashed, Installed, Exposed, Rejected int
	// FlashAttempts, FlashRetries, and CRCRejects total the install
	// phase's transport events; RollbackFlashes and RollbackRetries the
	// rollback phase's.
	FlashAttempts, FlashRetries, CRCRejects int
	RollbackFlashes, RollbackRetries        int
	// TimeSteps is the rollout's total duration: flash waves plus soak
	// steps plus rollback waves. Retries happen within a wave and cost no
	// extra steps.
	TimeSteps int
}

// Rollout observability, for run manifests: transport counters plus
// latency histograms for individual flash attempts and whole-machine
// soaks (the two wall-clock phases of a ring). flashDecodes counts the
// image decodes actually run: one per spec for the shared untouched image
// plus one per corrupted payload that reached the decoder, so
// decodes/attempts is the flash step's decode miss rate.
var (
	flashAttempts   = obs.NewCounter("fleet.flash.attempts")
	flashDecodes    = obs.NewCounter("fleet.flash.decodes")
	flashRetries    = obs.NewCounter("fleet.flash.retries")
	crcRejections   = obs.NewCounter("fleet.crc.rejections")
	machinesExposed = obs.NewCounter("fleet.machines.exposed")
	rollbacks       = obs.NewCounter("fleet.rollbacks")
	rollbackFlashes = obs.NewCounter("fleet.rollback.flashes")
	flashLatency    = obs.NewHistogram("fleet.flash.latency")
	soakDuration    = obs.NewHistogram("fleet.soak.duration")
)

// validate checks the configuration and applies defaults in place.
func (c *Config) validate(wl *Workload) error {
	if c.Machines <= 0 {
		return fmt.Errorf("fleet: %d machines", c.Machines)
	}
	if len(c.Rings) > 0 {
		sum := 0
		for i, s := range c.Rings {
			if s <= 0 {
				return fmt.Errorf("fleet: ring %d has size %d", i, s)
			}
			sum += s
		}
		if sum != c.Machines {
			return fmt.Errorf("fleet: ring sizes sum to %d, want %d machines", sum, c.Machines)
		}
	}
	if c.CorruptProb < 0 || c.CorruptProb > 1 {
		return fmt.Errorf("fleet: corruption probability %v", c.CorruptProb)
	}
	if c.FlashFailProb < 0 || c.FlashFailProb > 1 {
		return fmt.Errorf("fleet: flash failure probability %v", c.FlashFailProb)
	}
	if c.CorruptBits == 0 {
		c.CorruptBits = 4
	}
	if c.SoakSteps == 0 {
		c.SoakSteps = 1
	}
	if c.Gate != nil {
		if len(wl.Traces) == 0 {
			return fmt.Errorf("fleet: gated rollout needs a workload to soak on")
		}
		if len(wl.Traces) != len(wl.Tel) {
			return fmt.Errorf("fleet: %d traces but %d telemetry records",
				len(wl.Traces), len(wl.Tel))
		}
	}
	return nil
}

// ringLayout expands Config.Rings into per-ring machine ID slices
// (machine IDs are assigned ring by ring, in order).
func (c *Config) ringLayout() [][]int {
	sizes := c.Rings
	if len(sizes) == 0 {
		sizes = []int{c.Machines}
	}
	out := make([][]int, len(sizes))
	id := 0
	for i, s := range sizes {
		ring := make([]int, s)
		for j := range ring {
			ring[j] = id
			id++
		}
		out[i] = ring
	}
	return out
}

// waves is how many time steps flashing n machines takes at perStep
// machines per step (perStep 0 flashes them all in one step).
func waves(n, perStep int) int {
	if n == 0 {
		return 0
	}
	if perStep <= 0 {
		return 1
	}
	return (n + perStep - 1) / perStep
}

// hashU64 is the stateless splitmix64-style mix every transport decision
// derives from, mirroring internal/fault's scheduling hash: a pure
// function of (seed, operation key, attempt), never of shared RNG state.
func hashU64(seed int64, op, attempt int) uint64 {
	x := uint64(seed)
	x ^= uint64(op+1) * 0x9E3779B97F4A7C15
	x ^= uint64(attempt+1) * 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hash01 maps (seed, op, attempt) to a uniform [0,1) double.
func hash01(seed int64, op, attempt int) float64 {
	return float64(hashU64(seed, op, attempt)>>11) / float64(1<<53)
}
