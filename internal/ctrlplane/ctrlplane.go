// Package ctrlplane is the fleet adaptation control plane and the repo's
// one rollout engine: a long-running, sharded service that drives staged
// controller rollouts across a simulated datacenter while continuously
// ingesting the fleet's health telemetry. It composes the flash, soak and
// gate steps of internal/fleet into a control loop over logical ticks:
//
//   - every tick, machines in soaking rings stream telemetry intervals
//     into a central ingest layer — batched, pushed through bounded
//     per-shard queues with backpressure, folded by per-shard consumers;
//   - the decider (one serial pass per tick) reads the sharded health
//     state and drives the ring state machine: flash ring N while ring
//     N−1 soaks (pipelined rings), promote a ring on a quorum of installs
//     with a straggler re-flash pass, halt and roll the whole fleet back
//     on a gate failure;
//   - a campaign with the zero gate is an ungated big-bang push: each
//     ring is promoted as soon as it is flashed, nothing soaks, and
//     nothing rolls back.
//
// The service also survives an unreliable fleet and its own crashes:
//
//   - liveness: a fault.Plan with fleet classes (machine-churn,
//     telemetry-delay, shard-stall) drives per-machine presence and
//     delivery schedules; machines silent for LeaseTicks are marked stale
//     and quarantined out of gate denominators, late joiners catch up via
//     the straggler re-flash path, and a health gate facing too few live
//     leases defers instead of deciding blind (degraded mode);
//   - durability: with CheckpointPath set, the full campaign state —
//     rings, machines, leases, in-flight delayed telemetry, and the event
//     backlog — is snapshotted atomically at every tick epoch, and a new
//     Service over the same inputs resumes mid-campaign with a Report and
//     event log byte-identical to the uninterrupted run.
//
// Determinism matches the rest of the repo: every transport draw, churn
// transition, and telemetry interval is a pure hash of (seed, machine,
// tick), ingest folds commute, and all control decisions happen in the
// serial decider at the tick barrier — so the Report and the event log are
// byte-identical at any Workers/Shards setting. Wall-clock throughput
// (machines/sec, decisions/sec) is reported separately by the experiment
// layer and never enters the Report.
package ctrlplane

import (
	"fmt"
	"sync"

	"clustergate/internal/core"
	"clustergate/internal/fault"
	"clustergate/internal/fleet"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
)

// Hash salts for the control plane's own draw domains, disjoint from the
// fleet transport salts by construction (fresh seeds, not new phases — a
// third flash phase would collide with the next machine's install key).
const (
	saltTel     = 0x74656c65 // "tele": telemetry window picks
	saltReflash = 0x72666c73 // "rfls": straggler re-flash schedules
)

// Config describes one control-plane deployment campaign.
type Config struct {
	// Name scopes the campaign's event-log entries; empty selects
	// "ctrlplane-seed<Seed>". Purely observational.
	Name string
	// Machines is the datacenter size.
	Machines int
	// Shards is the ingest fan-in width: machine m reports to shard
	// m % Shards, each shard owning a bounded queue and one consumer.
	// Zero selects 8; values above Machines clamp. Purely an ingest
	// concurrency knob — never affects the Report.
	Shards int
	// Workers bounds the flash and telemetry fan-outs as in
	// parallel.ForEach: 0 selects all cores, 1 the serial path. Results
	// are identical at any setting.
	Workers int
	// Seed drives every transport decision and telemetry draw.
	Seed int64
	// RingFracs are the staged ring sizes as fleet fractions, canary
	// first; they must sum to ~1. Empty selects {0.01, 0.09, 0.30, 0.60}.
	RingFracs []float64
	// Quorum is the installed fraction a ring needs to be promoted to
	// soaking despite stragglers; stragglers get one re-flash pass. Zero
	// selects 0.95.
	Quorum float64
	// SoakTicks is how many ticks a ring streams telemetry before its
	// health gate is evaluated. Zero selects 3.
	SoakTicks int
	// FlashPerTick bounds how many machines the infrastructure flashes
	// per tick; zero flashes a whole ring in one tick.
	FlashPerTick int
	// IntervalsPerTick is how many telemetry intervals each soaking
	// machine streams per tick. Zero selects 2.
	IntervalsPerTick int
	// BatchSize is the ingest batch size in intervals; zero selects 256.
	BatchSize int
	// QueueDepth is each shard queue's capacity in batches — the
	// backpressure bound on how far producers can run ahead of their
	// consumer. Zero selects 4.
	QueueDepth int
	// LeaseTicks is the liveness lease: a soaking machine whose telemetry
	// has not arrived for more than LeaseTicks is marked stale and
	// quarantined out of gate denominators until it reports again. Zero
	// selects 2. Only consulted when Faults carries fleet rules.
	LeaseTicks int
	// Faults is the campaign's fleet fault plan. Rules of the fleet
	// classes (machine-churn, telemetry-delay, shard-stall) drive
	// per-machine presence and telemetry delivery; an empty plan is the
	// fully reliable fleet and leaves every decision byte-identical to a
	// plan-free campaign.
	Faults fault.Plan
	// CheckpointPath, when set, makes the campaign crash-safe: the full
	// control state is snapshotted atomically to this file at every tick
	// epoch, and New resumes from it when it already exists (stale or
	// mismatched checkpoints are ignored and the campaign starts fresh).
	CheckpointPath string
	// LatencyScope names the decision-latency histogram this campaign
	// observes into; empty selects "ctrlplane.decision.latency".
	// Experiments that must not drift each other's manifest counters use
	// distinct scopes.
	LatencyScope string
	// Gate is the ring-promotion policy, evaluated on ingested telemetry.
	// The zero policy gates nothing: each ring is promoted on the tick its
	// flash finishes, with no quorum, re-flash or soak, so nothing deploys
	// and no telemetry streams — a big-bang push. Install crashes are
	// counted but never halt it.
	Gate fleet.GatePolicy
	// Guardrail instruments every soak deployment.
	Guardrail core.Guardrail
	// Verify selects the CRC-checked install path: corrupted payloads are
	// rejected at the envelope and the transfer is retried; false models
	// the legacy pipeline that installs whatever arrives. CorruptProb (in
	// [0,1]) is the per-transfer chance the payload arrives with
	// CorruptBits flips (zero selects 4); FlashFailProb (in [0,1]) the
	// per-attempt chance of a transient failure, of which a flash absorbs
	// FlashRetries. See fleet.FlashSpec.
	Verify        bool
	CorruptProb   float64
	CorruptBits   int
	FlashFailProb float64
	FlashRetries  int
}

// validate checks the configuration and applies defaults in place.
func (c *Config) validate(wl *fleet.Workload) error {
	if c.Machines <= 0 {
		return fmt.Errorf("ctrlplane: %d machines", c.Machines)
	}
	if len(wl.Traces) == 0 || len(wl.Traces) != len(wl.Tel) {
		return fmt.Errorf("ctrlplane: workload has %d traces, %d telemetry records",
			len(wl.Traces), len(wl.Tel))
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > c.Machines {
		c.Shards = c.Machines
	}
	if len(c.RingFracs) == 0 {
		c.RingFracs = []float64{0.01, 0.09, 0.30, 0.60}
	}
	var sum float64
	for i, f := range c.RingFracs {
		if !(f > 0) {
			return fmt.Errorf("ctrlplane: ring %d has fraction %v", i, f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("ctrlplane: ring fractions sum to %v, want 1", sum)
	}
	if len(c.RingFracs) > c.Machines {
		return fmt.Errorf("ctrlplane: %d rings for %d machines", len(c.RingFracs), c.Machines)
	}
	if c.Quorum == 0 {
		c.Quorum = 0.95
	}
	if !(c.Quorum > 0 && c.Quorum <= 1) {
		return fmt.Errorf("ctrlplane: quorum %v", c.Quorum)
	}
	if !(c.CorruptProb >= 0 && c.CorruptProb <= 1) {
		return fmt.Errorf("ctrlplane: corruption probability %v", c.CorruptProb)
	}
	if !(c.FlashFailProb >= 0 && c.FlashFailProb <= 1) {
		return fmt.Errorf("ctrlplane: flash failure probability %v", c.FlashFailProb)
	}
	if c.SoakTicks <= 0 {
		c.SoakTicks = 3
	}
	if c.IntervalsPerTick <= 0 {
		c.IntervalsPerTick = 2
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 256
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4
	}
	if c.CorruptBits == 0 {
		c.CorruptBits = 4
	}
	if c.LeaseTicks <= 0 {
		c.LeaseTicks = 2
	}
	if c.LatencyScope == "" {
		c.LatencyScope = "ctrlplane.decision.latency"
	}
	if len(c.Faults.Rules) > 0 {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("ctrlplane: fault plan: %w", err)
		}
	}
	return nil
}

// ringLayout expands RingFracs into per-ring machine ID ranges, assigning
// IDs ring by ring; rounding residue lands in the last ring.
func (c *Config) ringLayout() [][]int {
	sizes := make([]int, len(c.RingFracs))
	assigned := 0
	for i, f := range c.RingFracs {
		s := int(f * float64(c.Machines))
		if s < 1 {
			s = 1
		}
		if i == len(c.RingFracs)-1 || assigned+s > c.Machines-(len(c.RingFracs)-1-i) {
			s = c.Machines - assigned - (len(c.RingFracs) - 1 - i)
		}
		sizes[i] = s
		assigned += s
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

// maxTicks derives the campaign bound: flash waves plus soak ticks per
// ring, plus generous slack for pipeline stalls.
func (s *Service) maxTicks() int {
	t := 0
	for _, r := range s.rings {
		t += waves(len(r.machines), s.cfg.FlashPerTick) + s.cfg.SoakTicks + 1
	}
	return t + 8
}

// waves is how many ticks flashing n machines takes at perTick machines
// per tick (perTick 0 flashes them all in one tick).
func waves(n, perTick int) int {
	if n == 0 {
		return 0
	}
	if perTick <= 0 {
		return 1
	}
	return (n + perTick - 1) / perTick
}

// ringState is one ring's position in the rollout state machine.
type ringState int

// Ring states: a ring waits (pending), flashes over one or more ticks,
// soaks while streaming telemetry, and ends promoted — unless the campaign
// halts first.
const (
	ringPending ringState = iota
	ringFlashing
	ringSoaking
	ringPromoted
)

// ringCtl is one ring's control state, owned by the serial decider (the
// flash step folds into it from the same goroutine).
type ringCtl struct {
	index    int
	machines []int
	state    ringState
	// flashedUpTo is the next machine offset to flash; soakStart the tick
	// the ring entered soaking.
	flashedUpTo int
	soakStart   int
	// Transport accounting, folded from flash outcomes.
	installed, rejected, flashCrashes          int
	rejectedAttempts, flashRetries, crcRejects int
	flashAttempts                              int
	reflashed, reflashRecovered                int
	// Quorum is recorded at the transport decision for the report;
	// quarantined at the health decision (installed machines held out of
	// the gate as absent or lease-expired).
	quorumNum, quorumDen int
	quarantined          int
	gateFailure          string
	flashDoneTick        int
	promotedTick         int
}

// machineCtl is one machine's base state: written by the flash step's
// serial fold and the serial liveness steps, read by telemetry producers.
type machineCtl struct {
	ring       int
	flashed    bool // ever installed the new image
	installed  bool // currently running it
	corrupt    bool
	crashed    bool
	rejected   bool
	rolledBack bool
	// Liveness state, owned by the serial churn/lease steps. present
	// tracks the churn schedule; missedFlash marks a machine whose flash
	// wave passed while it was absent (the catch-up step's worklist);
	// stale marks an expired lease; leaseBase is the tick lease counting
	// restarts from (soak start, join, or catch-up install); viaReflash
	// records which transport schedule installed the machine, so a
	// checkpoint restore replays the right one.
	present     bool
	missedFlash bool
	stale       bool
	leaseBase   int
	viaReflash  bool
	// profile is the machine's memoised soak behaviour, the source its
	// synthesized telemetry streams from; nil until installed with a
	// decodable controller.
	profile     *fleet.SoakProfile
	crashReason string
}

// Ingest observability: interval and batch volume and decision
// throughput. The per-batch fold latency histogram behind the bench's p95
// is per-service (Config.LatencyScope), so concurrent experiments don't
// drift each other's manifests. The fleet.* counters tally rollout
// outcomes: machines that installed a corrupted payload, rollbacks, and
// their slot-switch flashes.
var (
	intervalsIngested = obs.NewCounter("ctrlplane.intervals.ingested")
	batchesIngested   = obs.NewCounter("ctrlplane.batches")
	decisionsMade     = obs.NewCounter("ctrlplane.decisions")
	machinesExposed   = obs.NewCounter("fleet.machines.exposed")
	rollbacks         = obs.NewCounter("fleet.rollbacks")
	rollbackFlashes   = obs.NewCounter("fleet.rollback.flashes")
)

// Service is one control-plane campaign: construct with New, drive with
// Run (or Tick for tests), then Close. Not safe for concurrent use — the
// control loop itself is the single caller; concurrency lives inside the
// ingest and flash layers.
type Service struct {
	cfg   Config
	scope string

	spec, reflash fleet.FlashSpec
	soaker        *fleet.Soaker

	// flt is the fault plan's fleet view (nil for a reliable fleet); lat
	// the per-service decision-latency histogram.
	flt *fault.FleetInjector
	lat *obs.Histogram

	machines []machineCtl
	rings    []*ringCtl
	shards   []*shard

	tick                             int
	halted                           bool
	haltRing                         int
	haltReason                       string
	rolledBack                       bool
	rollbackFlashes, rollbackRetries int
	gateEvals                        int64

	// Liveness accounting, owned by the serial steps.
	leaves, joins                    int
	catchUpFlashes, catchUpInstalled int
	staleQuarantines, leaseRenewals  int
	gateDeferrals, quorumReevals     int

	// events is the durable event backlog, mirrored into every snapshot
	// so a resumed campaign re-emits the exact events the interrupted one
	// produced. Only maintained when CheckpointPath is set. The mutex
	// covers appends from flash workers (fleet.crc.reject via the Emitter
	// hook); all other emitters are serial.
	eventsMu sync.Mutex
	events   []obs.Event
	// ckptErr latches the first snapshot failure; Run surfaces it.
	ckptErr error

	// pending counts pushed-but-unfolded ingest batches; Wait is the tick
	// barrier between the telemetry step and the decider.
	pending sync.WaitGroup
	// consumers joins the per-shard consumer goroutines on Close.
	consumers sync.WaitGroup
	closeOnce sync.Once
	closed    bool
}

// record routes one control-plane event: into the durable backlog when
// checkpointing (so a resume can replay it) and into the process event log
// when one is installed. Safe for concurrent use — flash workers emit CRC
// rejections through it.
func (s *Service) record(t int64, kind string, attrs map[string]any) {
	if s.cfg.CheckpointPath != "" {
		s.eventsMu.Lock()
		s.events = append(s.events, obs.Event{Scope: s.scope, T: t, Kind: kind, Attrs: attrs})
		s.eventsMu.Unlock()
	}
	if obs.EventsActive() {
		obs.Emit(s.scope, t, kind, attrs)
	}
}

// recording reports whether record has anywhere to deliver — emission
// sites check it before building attribute maps.
func (s *Service) recording() bool {
	return obs.EventsActive() || s.cfg.CheckpointPath != ""
}

// New builds a Service over the workload (machine m soaks trace
// m % len(Traces)) and the sealed controller image, and starts its ingest
// consumers. Callers must Close it (Run does so itself).
func New(cfg Config, img []byte, wl fleet.Workload) (*Service, error) {
	if err := cfg.validate(&wl); err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, haltRing: -1}
	s.scope = cfg.Name
	if s.scope == "" {
		s.scope = fmt.Sprintf("ctrlplane-seed%d", cfg.Seed)
	}
	s.spec = fleet.FlashSpec{
		Seed: cfg.Seed, Img: img, Decode: fleet.DecodeOnce(img), Verify: cfg.Verify,
		CorruptProb: cfg.CorruptProb, CorruptBits: cfg.CorruptBits,
		FailProb: cfg.FlashFailProb, Retries: cfg.FlashRetries,
		Scope: s.scope,
	}
	// The straggler re-flash pass draws a fresh schedule by salting the
	// seed; reusing the install phase with the same seed would replay the
	// exact CRC rejections that exhausted the machine. It pushes the same
	// image, so it shares the install spec's one decode.
	s.reflash = s.spec
	s.reflash.Seed = cfg.Seed ^ saltReflash
	// CRC-reject events go through the durable recorder so checkpoint
	// resumes replay them instead of re-emitting duplicates.
	s.spec.Emitter = s.record
	s.reflash.Emitter = s.record
	s.soaker = fleet.NewSoaker(wl, cfg.Guardrail)
	s.lat = obs.NewHistogram(cfg.LatencyScope)
	if len(cfg.Faults.Rules) > 0 {
		inj, err := fault.NewInjector(cfg.Faults)
		if err != nil {
			return nil, err
		}
		s.flt = inj.ForFleet()
	}

	s.machines = make([]machineCtl, cfg.Machines)
	for m := range s.machines {
		s.machines[m].present = s.flt.Present(m, 0)
	}
	for i, ring := range cfg.ringLayout() {
		rc := &ringCtl{index: i, machines: ring, flashDoneTick: -1, promotedTick: -1}
		s.rings = append(s.rings, rc)
		for _, m := range ring {
			s.machines[m].ring = i
		}
	}
	s.rings[0].state = ringFlashing

	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(cfg, len(s.rings))
	}
	if err := s.restore(); err != nil {
		return nil, err
	}
	for i := range s.shards {
		s.consumers.Add(1)
		go s.consume(s.shards[i])
	}
	return s, nil
}

// Done reports the campaign reached a terminal state: every ring promoted,
// or halted by a gate.
func (s *Service) Done() bool {
	if s.halted {
		return true
	}
	for _, r := range s.rings {
		if r.state != ringPromoted {
			return false
		}
	}
	return true
}

// Run drives the control loop to completion and returns the Report,
// closing the service. It errors only if the campaign exceeds its tick
// bound without reaching a terminal state.
func (s *Service) Run() (*Report, error) {
	max := s.maxTicks()
	if s.flt != nil {
		// An unreliable fleet legitimately takes longer: churn transitions
		// keep landing through the plan's horizon, and deferred gates
		// re-evaluate until enough leases renew.
		max += s.flt.Horizon() + 48
	}
	for !s.Done() && s.tick < max {
		s.Tick()
	}
	s.Close()
	if s.ckptErr != nil {
		return nil, s.ckptErr
	}
	if !s.Done() {
		return nil, fmt.Errorf("ctrlplane: campaign did not terminate within %d ticks", max)
	}
	return s.report(), nil
}

// Tick advances the control loop one logical interval: apply churn
// transitions, flash the active ring's next wave, catch up rejoined
// machines, stream soaking machines' telemetry through ingest, wait for
// the ingest barrier, re-evaluate leases, run the serial decider, then
// snapshot the epoch when checkpointing.
func (s *Service) Tick() {
	if s.Done() || s.closed {
		return
	}
	s.churnStep()
	s.flashStep()
	s.catchUpStep()
	s.telemetryStep()
	s.pending.Wait()
	s.leaseStep()
	s.decideStep()
	s.tick++
	s.snapshot()
}

// Close shuts the ingest queues and joins the consumers. Idempotent and
// safe to call concurrently or after Run (which closes the service
// itself).
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.closed = true
		for _, sh := range s.shards {
			sh.q.Close()
		}
		s.consumers.Wait()
	})
}

// churnStep applies this tick's membership transitions from the fault
// plan: leavers drop out of gate denominators, joiners restart their
// lease and (if their flash wave passed while they were away) land on the
// catch-up worklist. Serial, machine order.
func (s *Service) churnStep() {
	if s.flt == nil || !s.flt.Churns() {
		return
	}
	reeval := 0
	lastRing := -1
	for m := range s.machines {
		mc := &s.machines[m]
		p := s.flt.Present(m, s.tick)
		if p == mc.present {
			continue
		}
		mc.present = p
		mc.stale = false
		if p {
			s.joins++
			mc.leaseBase = s.tick
			if s.recording() {
				s.record(int64(s.tick), "fleet.machine.join", map[string]any{
					"machine": m, "ring": mc.ring,
				})
			}
		} else {
			s.leaves++
			if s.recording() {
				s.record(int64(s.tick), "fleet.machine.leave", map[string]any{
					"machine": m, "ring": mc.ring,
				})
			}
		}
		// A membership change in a soaking ring re-evaluates that ring's
		// quorum denominator (machines are ring-contiguous, so counting
		// distinct rings is a last-seen check).
		if s.rings[mc.ring].state == ringSoaking && mc.ring != lastRing {
			reeval++
			lastRing = mc.ring
		}
	}
	s.quorumReevals += reeval
}

// catchUpStep flashes machines whose install wave passed while they were
// absent, via the straggler re-flash schedule — the late-joiner path into
// an already-soaking or promoted ring. Serial fold, machine order.
func (s *Service) catchUpStep() {
	if s.flt == nil || s.halted {
		return
	}
	var targets []int
	for m := range s.machines {
		mc := &s.machines[m]
		if mc.present && mc.missedFlash && !mc.flashed && !mc.rejected &&
			s.rings[mc.ring].state != ringPending {
			targets = append(targets, m)
		}
	}
	if len(targets) == 0 {
		return
	}
	outs := s.flashWave(&s.reflash, targets, fleet.PhaseInstall)
	for j, f := range outs {
		m := targets[j]
		mc := &s.machines[m]
		mc.missedFlash = false
		s.catchUpFlashes++
		s.foldFlash(s.rings[mc.ring], m, f)
		if f.out.Installed {
			s.catchUpInstalled++
			mc.viaReflash = true
			mc.leaseBase = s.tick
		}
		if s.recording() {
			s.record(int64(s.tick), "ctrlplane.machine.catchup", map[string]any{
				"machine": m, "ring": mc.ring, "installed": f.out.Installed,
			})
		}
	}
}

// leaseStep re-evaluates every soaking machine's telemetry lease behind
// the ingest barrier: a present machine silent past LeaseTicks goes stale
// (quarantined out of gate denominators — the degraded mode that keeps a
// stalled shard from blocking decisions), and a stale machine whose
// telemetry resumed renews. Serial, ring then machine order.
func (s *Service) leaseStep() {
	if s.flt == nil {
		return
	}
	for _, rc := range s.rings {
		if rc.state != ringSoaking {
			continue
		}
		for _, m := range rc.machines {
			mc := &s.machines[m]
			if !mc.installed || mc.rolledBack || !mc.present {
				continue
			}
			last := mc.leaseBase
			if mh := s.shards[m%len(s.shards)].health[m]; mh != nil && mh.lastTick > last {
				last = mh.lastTick
			}
			if s.tick-last > s.cfg.LeaseTicks {
				if !mc.stale {
					mc.stale = true
					s.staleQuarantines++
					if s.recording() {
						s.record(int64(s.tick), "ctrlplane.lease.expire", map[string]any{
							"machine": m, "ring": rc.index, "silent": s.tick - last,
						})
					}
				}
			} else if mc.stale {
				mc.stale = false
				s.leaseRenewals++
				if s.recording() {
					s.record(int64(s.tick), "ctrlplane.lease.renew", map[string]any{
						"machine": m, "ring": rc.index,
					})
				}
			}
		}
	}
}

// flashStep flashes the next wave of the flashing ring (at most one ring
// flashes at a time) and folds the outcomes serially in machine order.
func (s *Service) flashStep() {
	var rc *ringCtl
	for _, r := range s.rings {
		if r.state == ringFlashing {
			rc = r
			break
		}
	}
	if rc == nil || rc.flashedUpTo >= len(rc.machines) {
		return
	}
	wave := rc.machines[rc.flashedUpTo:]
	if s.cfg.FlashPerTick > 0 && len(wave) > s.cfg.FlashPerTick {
		wave = wave[:s.cfg.FlashPerTick]
	}
	rc.flashedUpTo += len(wave)
	// Absent machines can't be flashed; they join the catch-up worklist
	// and get the straggler schedule when they reappear.
	present := wave
	if s.flt != nil {
		present = make([]int, 0, len(wave))
		for _, m := range wave {
			if s.machines[m].present {
				present = append(present, m)
			} else {
				s.machines[m].missedFlash = true
			}
		}
	}
	outs := s.flashWave(&s.spec, present, fleet.PhaseInstall)
	for j, fo := range outs {
		s.foldFlash(rc, present[j], fo)
	}
	if rc.flashedUpTo == len(rc.machines) {
		rc.flashDoneTick = s.tick
	}
}

// flashed carries one flash outcome plus the soak profile computed for it.
type flashed struct {
	out     fleet.FlashOutcome
	profile *fleet.SoakProfile
}

// flashWave flashes the wave through the worker pool, computing each
// installed machine's soak profile in the same task (pristine profiles are
// memoised in the Soaker, so the per-machine cost after the first is a map
// hit). Outcomes are pure functions of (seed, machine), so the fold order
// — machine order, serial — fully determines the control state.
func (s *Service) flashWave(spec *fleet.FlashSpec, wave []int, phase int) []flashed {
	outs, _ := parallel.Map(s.cfg.Workers, len(wave), func(j int) (flashed, error) {
		fo := spec.Flash(wave[j], phase)
		return flashed{out: fo, profile: s.soakProfile(wave[j], fo)}, nil
	})
	return outs
}

// soakProfile is machine m's soak behaviour under its install outcome:
// nil when nothing will soak, because the install left no decodable
// controller or the campaign is ungated.
func (s *Service) soakProfile(m int, fo fleet.FlashOutcome) *fleet.SoakProfile {
	if s.cfg.Gate == (fleet.GatePolicy{}) || !fo.Installed || fo.Crashed || fo.Ctrl == nil {
		return nil
	}
	ti := m % len(s.soaker.Workload().Traces)
	if fo.Corrupt {
		return s.soaker.Deploy(fo.Ctrl, ti)
	}
	return s.soaker.Pristine(fo.Ctrl, ti)
}

// foldFlash folds one machine's install outcome into the ring and machine
// control state. Serial, machine order.
func (s *Service) foldFlash(rc *ringCtl, m int, f flashed) {
	mc := &s.machines[m]
	rc.flashAttempts += f.out.Attempts
	rc.flashRetries += f.out.Retries
	rc.crcRejects += f.out.CRCRejects
	if f.out.CRCRejects > 0 {
		rc.rejectedAttempts++
	}
	if !f.out.Installed {
		rc.rejected++
		mc.rejected = true
		return
	}
	mc.flashed, mc.installed, mc.corrupt = true, true, f.out.Corrupt
	mc.profile = f.profile
	rc.installed++
	if f.out.Corrupt {
		machinesExposed.Inc()
	}
	// A decode crash is a transport-phase signal (the install agent sees
	// it immediately, and the transport gate halts on it); a deploy crash
	// is a soak-phase signal — the machine streams crashed telemetry and
	// the health gate catches it.
	crashReason, phase := "", ""
	if f.out.Crashed {
		crashReason, phase = "installed payload failed to decode", "install"
		rc.flashCrashes++
	} else if f.profile != nil && f.profile.Health.Crashed {
		crashReason, phase = f.profile.Health.CrashReason, "soak"
	}
	if crashReason != "" {
		mc.crashed = true
		mc.crashReason = crashReason
		if s.recording() {
			s.record(int64(s.tick), "ctrlplane.machine.crash", map[string]any{
				"machine": m, "ring": rc.index, "phase": phase, "reason": crashReason,
			})
		}
	}
}

// decideStep is the serial decider: evaluate transport gates and quorums
// for rings that finished flashing, health gates for rings that soaked
// long enough behind a promoted predecessor, and advance the pipeline. All
// control-plane events are emitted here (or from the equally serial flash
// fold), so the event log is a pure function of the campaign inputs.
func (s *Service) decideStep() {
	for _, rc := range s.rings {
		switch rc.state {
		case ringFlashing:
			if rc.flashedUpTo == len(rc.machines) {
				s.decideTransport(rc)
			}
		case ringSoaking:
			prevPromoted := rc.index == 0 || s.rings[rc.index-1].state == ringPromoted
			if prevPromoted && s.tick >= rc.soakStart+s.cfg.SoakTicks {
				s.decideHealth(rc)
			}
		}
		if s.halted {
			return
		}
	}
}

// decideTransport gates a fully flashed ring on its transport telemetry,
// checks the install quorum, re-flashes stragglers, and starts the ring's
// soak — pipelining the next ring's flash phase behind it. An ungated
// campaign promotes the ring outright.
func (s *Service) decideTransport(rc *ringCtl) {
	if s.cfg.Gate == (fleet.GatePolicy{}) {
		s.promote(rc)
		s.flashNext(rc)
		return
	}
	s.gateEvals++
	decisionsMade.Inc()
	rep := &fleet.RingReport{
		Size: len(rc.machines), Installed: rc.installed, Crashes: rc.flashCrashes,
		RejectedAttempts: rc.rejectedAttempts,
	}
	if f := s.cfg.Gate.TransportFailure(rep); f != "" {
		s.haltAndRollback(rc, f)
		return
	}
	// Quorum counts the present population only: machines that churned
	// away are neither installable nor evidence against the image. For a
	// reliable fleet every machine is present and this reduces to the
	// installed / ring-size ratio.
	num, den := 0, 0
	for _, m := range rc.machines {
		mc := &s.machines[m]
		if !mc.present {
			continue
		}
		den++
		if mc.installed {
			num++
		}
	}
	rc.quorumNum, rc.quorumDen = num, den
	if float64(num) < s.cfg.Quorum*float64(den) {
		s.haltAndRollback(rc, fmt.Sprintf("install quorum %d/%d below %.2f",
			num, den, s.cfg.Quorum))
		return
	}
	// Quorum met: promote the ring to soaking and give present stragglers
	// one re-flash pass on a fresh transport schedule. Machines that fail
	// again stay on the old image and are counted, not fatal.
	var stragglers []int
	for _, m := range rc.machines {
		if s.machines[m].rejected && s.machines[m].present {
			stragglers = append(stragglers, m)
		}
	}
	if len(stragglers) > 0 {
		rc.reflashed = len(stragglers)
		outs := s.flashWave(&s.reflash, stragglers, fleet.PhaseInstall)
		for j, f := range outs {
			m := stragglers[j]
			// Undo the first pass's rejected bookkeeping, then fold the
			// re-flash like any install — foldFlash restores the rejected
			// state if the second pass exhausted its attempts too.
			s.machines[m].rejected = false
			rc.rejected--
			s.foldFlash(rc, m, f)
			if f.out.Installed {
				rc.reflashRecovered++
				s.machines[m].viaReflash = true
			}
		}
		if s.recording() {
			s.record(int64(s.tick), "ctrlplane.ring.reflash", map[string]any{
				"ring": rc.index, "stragglers": len(stragglers), "recovered": rc.reflashRecovered,
			})
		}
	}
	rc.state = ringSoaking
	rc.soakStart = s.tick
	// Lease counting starts at soak start; telemetry earlier than that
	// doesn't exist.
	for _, m := range rc.machines {
		if s.machines[m].leaseBase < s.tick {
			s.machines[m].leaseBase = s.tick
		}
	}
	if s.recording() {
		s.record(int64(s.tick), "ctrlplane.ring.soak", map[string]any{
			"ring": rc.index, "installed": rc.installed,
			"quorum": fmt.Sprintf("%d/%d", rc.quorumNum, rc.quorumDen),
		})
	}
	s.flashNext(rc)
}

// flashNext starts flashing the ring after rc, if there is one.
func (s *Service) flashNext(rc *ringCtl) {
	if rc.index+1 == len(s.rings) {
		return
	}
	next := s.rings[rc.index+1]
	next.state = ringFlashing
	if s.recording() {
		s.record(int64(s.tick), "ctrlplane.ring.flash", map[string]any{
			"ring": next.index, "size": len(next.machines),
		})
	}
}

// decideHealth evaluates a soaked ring's health gate on the telemetry the
// ingest layer accumulated for it. Under a fault plan the gate first
// checks it isn't deciding blind: if quarantined machines (absent or
// lease-expired) leave fewer than a quorum of the installed population
// live, the decision defers to a later tick instead of judging the image
// on missing evidence. Deferral is bounded by a couple of lease windows
// past the soak — transient stalls and delays clear within it, and
// machines that never come back must not block the ring forever — after
// which the gate decides on the live population alone.
func (s *Service) decideHealth(rc *ringCtl) {
	live, quarantined := 0, 0
	for _, m := range rc.machines {
		mc := &s.machines[m]
		if !mc.installed || mc.rolledBack {
			continue
		}
		if mc.present && !mc.stale {
			live++
		} else {
			quarantined++
		}
	}
	if s.flt != nil && float64(live) < s.cfg.Quorum*float64(live+quarantined) &&
		s.tick < rc.soakStart+s.cfg.SoakTicks+2*(s.cfg.LeaseTicks+1) {
		s.gateDeferrals++
		if s.recording() {
			s.record(int64(s.tick), "ctrlplane.gate.defer", map[string]any{
				"ring": rc.index, "live": live, "quarantined": quarantined,
			})
		}
		return
	}
	rc.quarantined = quarantined
	s.gateEvals++
	decisionsMade.Inc()
	rep := &fleet.RingReport{
		Size: len(rc.machines), Installed: rc.installed, Quarantined: quarantined,
	}
	for _, sh := range s.shards {
		acc := &sh.rings[rc.index]
		rep.Trips += acc.trips
		rep.SLAWindows += acc.windows
		rep.SLAViolations += acc.violations
		rep.Misgated += acc.misgated
		rep.Truth0 += acc.truth0
		rep.Crashes += acc.crashes
	}
	if f := s.cfg.Gate.HealthFailure(rep); f != "" {
		s.haltAndRollback(rc, f)
		return
	}
	s.promote(rc)
}

// promote marks rc promoted at this tick.
func (s *Service) promote(rc *ringCtl) {
	rc.state = ringPromoted
	rc.promotedTick = s.tick
	if s.recording() {
		s.record(int64(s.tick), "ctrlplane.ring.promote", map[string]any{
			"ring": rc.index, "installed": rc.installed,
			"quorum": fmt.Sprintf("%d/%d", rc.quorumNum, rc.quorumDen),
		})
	}
}

// haltAndRollback stops the campaign at a failed gate and slot-switches
// every machine currently on the new image — including any already flashed
// by the pipelined next ring — back to the previous one.
func (s *Service) haltAndRollback(rc *ringCtl, reason string) {
	rc.gateFailure = reason
	s.halted = true
	s.haltRing = rc.index
	s.haltReason = reason
	var ids []int
	for m := range s.machines {
		if s.machines[m].installed {
			ids = append(ids, m)
		}
	}
	spec := fleet.FlashSpec{Seed: s.cfg.Seed, FailProb: s.cfg.FlashFailProb,
		Retries: s.cfg.FlashRetries, Scope: s.scope}
	outs, _ := parallel.Map(s.cfg.Workers, len(ids), func(j int) (fleet.FlashOutcome, error) {
		return spec.Flash(ids[j], fleet.PhaseRollback), nil
	})
	for j, m := range ids {
		mc := &s.machines[m]
		mc.installed = false
		mc.rolledBack = true
		s.rollbackRetries += outs[j].Retries
	}
	s.rolledBack = true
	s.rollbackFlashes = len(ids)
	rollbacks.Inc()
	rollbackFlashes.Add(int64(len(ids)))
	if s.recording() {
		s.record(int64(s.tick), "ctrlplane.ring.halt", map[string]any{
			"ring": rc.index, "reason": reason,
		})
		s.record(int64(s.tick), "ctrlplane.rollback", map[string]any{
			"machines": len(ids),
		})
	}
}
