package fault

// This file is the fleet-facing view of a compiled fault plan: the
// control-plane fault classes (MachineChurn, TelemetryDelay, ShardStall)
// queried per (machine, tick) instead of per (trace, interval). Every
// method is a pure function of (plan seed, rule index, machine, tick) via
// the same stateless splitmix64 hash the per-trace classes use, so a
// fleet's churn schedule is byte-identical at any worker, shard, or
// queue-depth setting — and identical whether it is queried live or
// replayed after a checkpoint restore.

// Hash salts for the fleet draw domains, disjoint from the per-trace
// salts.
const (
	saltChurn     = 0x6368726e // "chrn": churn membership
	saltChurnMode = 0x636d6f64 // "cmod": churn lifecycle mode
	saltChurnAt   = 0x63617420 // "cat ": churn transition tick
	saltChurnDur  = 0x63647572 // "cdur": reboot outage length
	saltDelay     = 0x646c7920 // "dly ": telemetry delay membership
	saltDelayDur  = 0x64647572 // "ddur": telemetry delay length
	saltStall     = 0x73746c20 // "stl ": shard-stall schedules
)

// Churn lifecycle modes, drawn uniformly per churning machine.
const (
	churnLeave    = iota // up from tick 0, leaves permanently
	churnReboot          // up, down for a window, back up
	churnLateJoin        // absent until its join tick
)

// FleetInjector is a compiled plan's fleet view. It is immutable and safe
// for concurrent use; a nil FleetInjector injects nothing (always
// present, never delayed, never stalled).
type FleetInjector struct {
	seed  int64
	rules []Rule
}

// ForFleet derives the fleet view of the compiled plan. Nil-safe: a nil
// Injector (or a plan with no fleet rules) yields a FleetInjector whose
// Churns reports false and whose queries are identity.
func (inj *Injector) ForFleet() *FleetInjector {
	if inj == nil {
		return nil
	}
	return &FleetInjector{seed: inj.plan.Seed, rules: inj.plan.Rules}
}

// Churns reports whether the plan carries any MachineChurn rules, so
// callers can skip per-tick membership scans entirely for churn-free
// plans.
func (f *FleetInjector) Churns() bool {
	if f == nil {
		return false
	}
	for _, r := range f.rules {
		if r.Class == MachineChurn {
			return true
		}
	}
	return false
}

// lifecycle resolves machine m's churn schedule against the first
// MachineChurn rule that selects it: the lifecycle mode, the transition
// tick in [1, span], and the reboot outage length in [1, burst]. The
// found flag is false for machines no rule selects.
func (f *FleetInjector) lifecycle(m int) (mode, at, dur int, found bool) {
	for ri, r := range f.rules {
		if r.Class != MachineChurn {
			continue
		}
		if Hash01(f.seed^saltChurn, ri, m) >= r.Rate {
			continue
		}
		span := r.Span
		if span <= 0 {
			span = 16
		}
		burst := r.Burst
		if burst < 1 {
			burst = 1
		}
		mode = int(HashU64(f.seed^saltChurnMode, ri, m) % 3)
		at = 1 + int(HashU64(f.seed^saltChurnAt, ri, m)%uint64(span))
		dur = 1 + int(HashU64(f.seed^saltChurnDur, ri, m)%uint64(burst))
		return mode, at, dur, true
	}
	return 0, 0, 0, false
}

// Present reports whether machine m is up at tick t: churn-free machines
// are always present; a leaver is present before its transition tick, a
// rebooter absent during [at, at+dur), a late joiner absent before its
// join tick. Nil-safe (always present).
func (f *FleetInjector) Present(m, t int) bool {
	if f == nil {
		return true
	}
	mode, at, dur, found := f.lifecycle(m)
	if !found {
		return true
	}
	switch mode {
	case churnLeave:
		return t < at
	case churnReboot:
		return t < at || t >= at+dur
	default: // churnLateJoin
		return t >= at
	}
}

// Delay returns how many ticks machine m's k-th telemetry interval of
// tick t is delayed per any TelemetryDelay rules: the largest active
// rule's draw in [1, burst], or 0 when none fires. Nil-safe.
func (f *FleetInjector) Delay(m, t, k int) int {
	if f == nil {
		return 0
	}
	out := 0
	for ri, r := range f.rules {
		if r.Class != TelemetryDelay {
			continue
		}
		idx := (m*2_097_169+t)*131 + k
		if Hash01(f.seed^saltDelay, ri, idx) >= r.Rate {
			continue
		}
		burst := r.Burst
		if burst < 1 {
			burst = 1
		}
		d := 1 + int(HashU64(f.seed^saltDelayDur, ri, idx)%uint64(burst))
		if d > out {
			out = d
		}
	}
	return out
}

// Stalled reports whether machine m's ingest path is stalled at tick t:
// each ShardStall rule partitions machines over its own virtual shard
// count and draws burst windows per (rule, virtual shard, tick), so two
// machines on the same virtual shard always stall together regardless of
// the service's physical shard layout. Nil-safe.
func (f *FleetInjector) Stalled(m, t int) bool {
	if f == nil {
		return false
	}
	for ri, r := range f.rules {
		if r.Class != ShardStall {
			continue
		}
		vshards := r.Shards
		if vshards <= 0 {
			vshards = 8
		}
		sseed := int64(HashU64(f.seed^saltStall, ri, m%vshards))
		if activeAt(sseed, ri, t, r) {
			return true
		}
	}
	return false
}

// DeliveryTick returns the tick at which machine m's k-th interval
// produced at tick t reaches its ingest consumer: the production tick
// plus any TelemetryDelay draw, then pushed past any ShardStall window
// covering the delivery tick (bounded at 64 ticks of stall so a
// pathological plan cannot defer delivery forever). Nil-safe (delivery
// equals production).
func (f *FleetInjector) DeliveryTick(m, t, k int) int {
	if f == nil {
		return t
	}
	d := t + f.Delay(m, t, k)
	for hop := 0; hop < 64 && f.Stalled(m, d); hop++ {
		d++
	}
	return d
}

// Horizon bounds the plan's fleet disturbance schedule: the last tick at
// which a churn transition can still occur plus the longest delay and
// stall windows. Campaign tick bounds add it as slack so a churn-heavy
// plan cannot push a healthy campaign past its deadline. Nil-safe (0).
func (f *FleetInjector) Horizon() int {
	if f == nil {
		return 0
	}
	h := 0
	for _, r := range f.rules {
		switch r.Class {
		case MachineChurn:
			span := r.Span
			if span <= 0 {
				span = 16
			}
			burst := r.Burst
			if burst < 1 {
				burst = 1
			}
			if span+burst > h {
				h = span + burst
			}
		case TelemetryDelay, ShardStall:
			burst := r.Burst
			if burst < 1 {
				burst = 1
			}
			if burst > h {
				h = burst
			}
		}
	}
	return h
}
