package ctrlplane

// Crash-safe campaign checkpointing. With Config.CheckpointPath set, the
// service snapshots its entire control state — ring state machine, machine
// flags and leases, sharded health accumulators, in-flight delayed
// telemetry, and the event backlog — at the end of every tick, atomically
// (temp file + rename, mirroring paperbench's checkpoint contract). A new
// Service constructed over the same inputs restores the snapshot and
// continues mid-campaign; because every flash outcome, churn transition,
// and telemetry draw is a pure function of the seeds, the resumed
// campaign's Report and event log are byte-identical to an uninterrupted
// run's.
//
// Snapshots are deliberately shard-count-free: ring accumulators are
// summed fleet-wide, health records keyed by machine, and future
// intervals carried with their delivery tick — so a campaign can even be
// resumed at a different Shards/BatchSize/Workers setting and still
// produce the same Report (modulo the Batches count, which those knobs
// legitimately change). A checkpoint whose fingerprint doesn't match the
// campaign inputs is ignored and the campaign starts fresh.

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"sort"

	"clustergate/internal/fleet"
	"clustergate/internal/obs"
	"clustergate/internal/parallel"
)

// ringSnap is one ring's durable control state.
type ringSnap struct {
	State            int    `json:"state"`
	FlashedUpTo      int    `json:"flashed_up_to"`
	SoakStart        int    `json:"soak_start"`
	Installed        int    `json:"installed"`
	Rejected         int    `json:"rejected"`
	FlashCrashes     int    `json:"flash_crashes"`
	RejectedAttempts int    `json:"rejected_attempts"`
	FlashRetries     int    `json:"flash_retries"`
	CRCRejects       int    `json:"crc_rejects"`
	FlashAttempts    int    `json:"flash_attempts"`
	Reflashed        int    `json:"reflashed"`
	ReflashRecovered int    `json:"reflash_recovered"`
	QuorumNum        int    `json:"quorum_num"`
	QuorumDen        int    `json:"quorum_den"`
	Quarantined      int    `json:"quarantined"`
	GateFailure      string `json:"gate_failure,omitempty"`
	FlashDoneTick    int    `json:"flash_done_tick"`
	PromotedTick     int    `json:"promoted_tick"`
}

// machineSnap is one machine's durable flags (profiles are recomputed on
// restore, not persisted — they are pure functions of the seeds).
type machineSnap struct {
	Flashed     bool   `json:"f,omitempty"`
	Installed   bool   `json:"i,omitempty"`
	Corrupt     bool   `json:"c,omitempty"`
	Crashed     bool   `json:"x,omitempty"`
	Rejected    bool   `json:"r,omitempty"`
	RolledBack  bool   `json:"b,omitempty"`
	Present     bool   `json:"p,omitempty"`
	MissedFlash bool   `json:"m,omitempty"`
	Stale       bool   `json:"s,omitempty"`
	ViaReflash  bool   `json:"v,omitempty"`
	LeaseBase   int    `json:"l,omitempty"`
	CrashReason string `json:"cr,omitempty"`
}

// accumSnap is one ring's soak telemetry summed across every shard.
type accumSnap struct {
	Intervals  int64 `json:"intervals"`
	Trips      int   `json:"trips"`
	Windows    int   `json:"windows"`
	Violations int   `json:"violations"`
	Misgated   int   `json:"misgated"`
	Truth0     int   `json:"truth0"`
	Crashes    int   `json:"crashes"`
}

// healthSnap is one machine's ingested health record.
type healthSnap struct {
	Machine    int  `json:"m"`
	Trips      int  `json:"t,omitempty"`
	Windows    int  `json:"w,omitempty"`
	Violations int  `json:"v,omitempty"`
	Misgated   int  `json:"g,omitempty"`
	Truth0     int  `json:"z,omitempty"`
	Crashed    bool `json:"c,omitempty"`
	LastTick   int  `json:"lt,omitempty"`
}

// intervalSnap is one produced-but-undelivered telemetry interval.
type intervalSnap struct {
	Machine int              `json:"m"`
	Ring    int              `json:"r"`
	Crashed bool             `json:"c,omitempty"`
	Tick    int              `json:"t"`
	Stat    fleet.WindowStat `json:"s"`
}

// campaignSnap is the full durable state of a campaign at a tick epoch.
type campaignSnap struct {
	Fingerprint string `json:"fingerprint"`
	Tick        int    `json:"tick"`

	Halted          bool   `json:"halted,omitempty"`
	HaltRing        int    `json:"halt_ring"`
	HaltReason      string `json:"halt_reason,omitempty"`
	RolledBack      bool   `json:"rolled_back,omitempty"`
	RollbackFlashes int    `json:"rollback_flashes,omitempty"`
	RollbackRetries int    `json:"rollback_retries,omitempty"`
	GateEvals       int64  `json:"gate_evals"`

	Leaves           int `json:"leaves,omitempty"`
	Joins            int `json:"joins,omitempty"`
	CatchUpFlashes   int `json:"catch_up_flashes,omitempty"`
	CatchUpInstalled int `json:"catch_up_installed,omitempty"`
	StaleQuarantines int `json:"stale_quarantines,omitempty"`
	LeaseRenewals    int `json:"lease_renewals,omitempty"`
	GateDeferrals    int `json:"gate_deferrals,omitempty"`
	QuorumReevals    int `json:"quorum_reevals,omitempty"`

	Rings      []ringSnap     `json:"rings"`
	Machines   []machineSnap  `json:"machines"`
	RingAccums []accumSnap    `json:"ring_accums"`
	Health     []healthSnap   `json:"health,omitempty"`
	Batches    int64          `json:"batches"`
	Future     []intervalSnap `json:"future,omitempty"`
	Events     []obs.Event    `json:"events,omitempty"`
}

// fingerprint binds a checkpoint to the campaign inputs that determine
// its schedule: seeds, fleet shape, gate cadence, transport model, image
// bytes, and the fault plan. Ingest knobs (Shards, BatchSize, QueueDepth,
// Workers) are deliberately absent — they never affect control decisions.
func (s *Service) fingerprint() string {
	plan, _ := json.Marshal(s.cfg.Faults)
	return fmt.Sprintf(
		"v1|seed=%d|machines=%d|rings=%v|quorum=%v|soak=%d|fpt=%d|ipt=%d|lease=%d|verify=%t|corrupt=%v/%d|fail=%v/%d|img=%08x|traces=%d|faults=%s",
		s.cfg.Seed, s.cfg.Machines, s.cfg.RingFracs, s.cfg.Quorum,
		s.cfg.SoakTicks, s.cfg.FlashPerTick, s.cfg.IntervalsPerTick,
		s.cfg.LeaseTicks, s.cfg.Verify, s.cfg.CorruptProb, s.cfg.CorruptBits,
		s.cfg.FlashFailProb, s.cfg.FlashRetries,
		crc32.ChecksumIEEE(s.spec.Img), len(s.soaker.Workload().Traces), plan)
}

// snapshot persists the campaign state at the current tick epoch,
// atomically. Called at the end of every Tick; a no-op without a
// CheckpointPath. The first failure latches and surfaces from Run.
func (s *Service) snapshot() {
	if s.cfg.CheckpointPath == "" || s.ckptErr != nil {
		return
	}
	snap := campaignSnap{
		Fingerprint: s.fingerprint(),
		Tick:        s.tick,
		Halted:      s.halted, HaltRing: s.haltRing, HaltReason: s.haltReason,
		RolledBack:      s.rolledBack,
		RollbackFlashes: s.rollbackFlashes, RollbackRetries: s.rollbackRetries,
		GateEvals: s.gateEvals,
		Leaves:    s.leaves, Joins: s.joins,
		CatchUpFlashes: s.catchUpFlashes, CatchUpInstalled: s.catchUpInstalled,
		StaleQuarantines: s.staleQuarantines, LeaseRenewals: s.leaseRenewals,
		GateDeferrals: s.gateDeferrals, QuorumReevals: s.quorumReevals,
	}
	for _, rc := range s.rings {
		snap.Rings = append(snap.Rings, ringSnap{
			State:       int(rc.state),
			FlashedUpTo: rc.flashedUpTo, SoakStart: rc.soakStart,
			Installed: rc.installed, Rejected: rc.rejected,
			FlashCrashes:     rc.flashCrashes,
			RejectedAttempts: rc.rejectedAttempts,
			FlashRetries:     rc.flashRetries, CRCRejects: rc.crcRejects,
			FlashAttempts: rc.flashAttempts,
			Reflashed:     rc.reflashed, ReflashRecovered: rc.reflashRecovered,
			QuorumNum: rc.quorumNum, QuorumDen: rc.quorumDen,
			Quarantined: rc.quarantined, GateFailure: rc.gateFailure,
			FlashDoneTick: rc.flashDoneTick, PromotedTick: rc.promotedTick,
		})
	}
	snap.Machines = make([]machineSnap, len(s.machines))
	for m := range s.machines {
		mc := &s.machines[m]
		snap.Machines[m] = machineSnap{
			Flashed: mc.flashed, Installed: mc.installed, Corrupt: mc.corrupt,
			Crashed: mc.crashed, Rejected: mc.rejected, RolledBack: mc.rolledBack,
			Present: mc.present, MissedFlash: mc.missedFlash, Stale: mc.stale,
			ViaReflash: mc.viaReflash, LeaseBase: mc.leaseBase,
			CrashReason: mc.crashReason,
		}
	}
	// Shard state is persisted shard-count-free: accumulators summed
	// fleet-wide, health and future intervals keyed by machine and
	// re-partitioned on restore.
	snap.RingAccums = make([]accumSnap, len(s.rings))
	for _, sh := range s.shards {
		snap.Batches += sh.batches
		for i := range sh.rings {
			acc := &sh.rings[i]
			out := &snap.RingAccums[i]
			out.Intervals += acc.intervals
			out.Trips += acc.trips
			out.Windows += acc.windows
			out.Violations += acc.violations
			out.Misgated += acc.misgated
			out.Truth0 += acc.truth0
			out.Crashes += acc.crashes
		}
		for m, mh := range sh.health {
			snap.Health = append(snap.Health, healthSnap{
				Machine: m, Trips: mh.trips, Windows: mh.windows,
				Violations: mh.violations, Misgated: mh.misgated,
				Truth0: mh.truth0, Crashed: mh.crashed, LastTick: mh.lastTick,
			})
		}
		for _, ivs := range sh.future {
			for _, iv := range ivs {
				snap.Future = append(snap.Future, intervalSnap{
					Machine: iv.machine, Ring: iv.ring, Crashed: iv.crashed,
					Tick: iv.tick, Stat: iv.stat,
				})
			}
		}
	}
	sort.Slice(snap.Health, func(a, b int) bool {
		return snap.Health[a].Machine < snap.Health[b].Machine
	})
	// Stable by (tick, machine): each machine's intervals live in one
	// shard's stash in production order, so the stable sort preserves
	// their per-machine delivery order.
	sort.SliceStable(snap.Future, func(a, b int) bool {
		if snap.Future[a].Tick != snap.Future[b].Tick {
			return snap.Future[a].Tick < snap.Future[b].Tick
		}
		return snap.Future[a].Machine < snap.Future[b].Machine
	})
	s.eventsMu.Lock()
	snap.Events = append([]obs.Event(nil), s.events...)
	s.eventsMu.Unlock()

	data, err := json.Marshal(&snap)
	if err != nil {
		s.ckptErr = fmt.Errorf("ctrlplane: checkpoint marshal: %w", err)
		return
	}
	tmp := s.cfg.CheckpointPath + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.ckptErr = fmt.Errorf("ctrlplane: checkpoint write: %w", err)
		return
	}
	if err := os.Rename(tmp, s.cfg.CheckpointPath); err != nil {
		s.ckptErr = fmt.Errorf("ctrlplane: checkpoint rename: %w", err)
	}
}

// restore resumes from an existing checkpoint file, if one matches this
// campaign's fingerprint; a missing, unreadable-as-JSON, mismatched or
// out-of-range checkpoint leaves the fresh state untouched. Called from
// New before the ingest consumers start.
func (s *Service) restore() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	data, err := os.ReadFile(s.cfg.CheckpointPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ctrlplane: checkpoint read: %w", err)
	}
	var snap campaignSnap
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil // corrupt or truncated: start fresh
	}
	if snap.Fingerprint != s.fingerprint() ||
		len(snap.Rings) != len(s.rings) || len(snap.Machines) != len(s.machines) {
		return nil // different campaign: start fresh
	}
	if !s.inRange(&snap) {
		return nil // indices this campaign cannot hold: start fresh
	}

	s.tick = snap.Tick
	s.halted, s.haltRing, s.haltReason = snap.Halted, snap.HaltRing, snap.HaltReason
	s.rolledBack = snap.RolledBack
	s.rollbackFlashes, s.rollbackRetries = snap.RollbackFlashes, snap.RollbackRetries
	s.gateEvals = snap.GateEvals
	s.leaves, s.joins = snap.Leaves, snap.Joins
	s.catchUpFlashes, s.catchUpInstalled = snap.CatchUpFlashes, snap.CatchUpInstalled
	s.staleQuarantines, s.leaseRenewals = snap.StaleQuarantines, snap.LeaseRenewals
	s.gateDeferrals, s.quorumReevals = snap.GateDeferrals, snap.QuorumReevals

	for i, rs := range snap.Rings {
		rc := s.rings[i]
		rc.state = ringState(rs.State)
		rc.flashedUpTo, rc.soakStart = rs.FlashedUpTo, rs.SoakStart
		rc.installed, rc.rejected = rs.Installed, rs.Rejected
		rc.flashCrashes = rs.FlashCrashes
		rc.rejectedAttempts = rs.RejectedAttempts
		rc.flashRetries, rc.crcRejects = rs.FlashRetries, rs.CRCRejects
		rc.flashAttempts = rs.FlashAttempts
		rc.reflashed, rc.reflashRecovered = rs.Reflashed, rs.ReflashRecovered
		rc.quorumNum, rc.quorumDen = rs.QuorumNum, rs.QuorumDen
		rc.quarantined, rc.gateFailure = rs.Quarantined, rs.GateFailure
		rc.flashDoneTick, rc.promotedTick = rs.FlashDoneTick, rs.PromotedTick
	}
	for m, ms := range snap.Machines {
		mc := &s.machines[m]
		mc.flashed, mc.installed, mc.corrupt = ms.Flashed, ms.Installed, ms.Corrupt
		mc.crashed, mc.rejected, mc.rolledBack = ms.Crashed, ms.Rejected, ms.RolledBack
		mc.present, mc.missedFlash, mc.stale = ms.Present, ms.MissedFlash, ms.Stale
		mc.viaReflash, mc.leaseBase = ms.ViaReflash, ms.LeaseBase
		mc.crashReason = ms.CrashReason
	}
	// Re-partition the shard state over however many shards this service
	// has: summed accumulators and the batch total land in shard 0 (every
	// reader sums across shards), health and future intervals go to each
	// machine's home shard.
	for i, acc := range snap.RingAccums {
		s.shards[0].rings[i] = ringAccum{
			intervals: acc.Intervals, trips: acc.Trips, windows: acc.Windows,
			violations: acc.Violations, misgated: acc.Misgated,
			truth0: acc.Truth0, crashes: acc.Crashes,
		}
	}
	s.shards[0].batches = snap.Batches
	for _, hs := range snap.Health {
		sh := s.shards[hs.Machine%len(s.shards)]
		sh.health[hs.Machine] = &machineHealth{
			trips: hs.Trips, windows: hs.Windows, violations: hs.Violations,
			misgated: hs.Misgated, truth0: hs.Truth0,
			crashed: hs.Crashed, lastTick: hs.LastTick,
		}
	}
	for _, is := range snap.Future {
		sh := s.shards[is.Machine%len(s.shards)]
		sh.future[is.Tick] = append(sh.future[is.Tick], interval{
			machine: is.Machine, ring: is.Ring, crashed: is.Crashed,
			tick: is.Tick, stat: is.Stat,
		})
	}
	// Replay the event backlog into the fresh process's event log, and
	// keep it as this service's backlog so later snapshots carry the full
	// history.
	s.events = snap.Events
	if obs.EventsActive() {
		for _, ev := range s.events {
			obs.Emit(ev.Scope, ev.T, ev.Kind, ev.Attrs)
		}
	}
	s.recomputeProfiles()
	return nil
}

// inRange reports whether every index and enumeration in a fingerprint-
// matching snapshot fits this campaign, so that restoring it cannot index
// out of range here or later in the ingest fold.
func (s *Service) inRange(snap *campaignSnap) bool {
	rings, machines := len(s.rings), len(s.machines)
	if len(snap.RingAccums) != rings || snap.HaltRing < -1 || snap.HaltRing >= rings {
		return false
	}
	for i, rs := range snap.Rings {
		if rs.State < int(ringPending) || rs.State > int(ringPromoted) ||
			rs.FlashedUpTo < 0 || rs.FlashedUpTo > len(s.rings[i].machines) {
			return false
		}
	}
	for _, hs := range snap.Health {
		if hs.Machine < 0 || hs.Machine >= machines {
			return false
		}
	}
	for _, is := range snap.Future {
		if is.Machine < 0 || is.Machine >= machines || is.Ring < 0 || is.Ring >= rings {
			return false
		}
	}
	return true
}

// recomputeProfiles rebuilds every flashed machine's soak profile by
// replaying its install against the same transport schedule that landed
// it (original or re-flash seed) — flash outcomes are pure functions of
// (seed, machine, phase), so the replay reproduces the identical
// controller and profile; the spec copies share the service's one image
// decode, so the replay costs a CRC check per untouched install. Events
// are dropped during the replay: the backlog already carries the CRC
// rejections the original run recorded.
func (s *Service) recomputeProfiles() {
	var ids []int
	for m := range s.machines {
		if s.machines[m].flashed {
			ids = append(ids, m)
		}
	}
	if len(ids) == 0 {
		return
	}
	drop := func(int64, string, map[string]any) {}
	spec, reflash := s.spec, s.reflash
	spec.Emitter, reflash.Emitter = drop, drop
	traces := len(s.soaker.Workload().Traces)
	_ = parallel.ForEach(s.cfg.Workers, len(ids), func(j int) error {
		m := ids[j]
		mc := &s.machines[m]
		sp := &spec
		if mc.viaReflash {
			sp = &reflash
		}
		fo := sp.Flash(m, fleet.PhaseInstall)
		if fo.Installed && !fo.Crashed && fo.Ctrl != nil {
			if fo.Corrupt {
				mc.profile = s.soaker.Deploy(fo.Ctrl, m%traces)
			} else {
				mc.profile = s.soaker.Pristine(fo.Ctrl, m%traces)
			}
		}
		return nil
	})
}
