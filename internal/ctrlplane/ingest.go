package ctrlplane

import (
	"time"

	"clustergate/internal/fault"
	"clustergate/internal/fleet"
	"clustergate/internal/parallel"
)

// interval is one machine's telemetry report for one soak window: the
// unit the ingest layer batches, queues, and folds. A crashed machine
// reports crashed intervals instead of window stats. tick is the
// interval's delivery tick — equal to its production tick on a reliable
// fleet, later under telemetry-delay or shard-stall faults — and feeds
// the lease layer's last-heard-from tracking.
type interval struct {
	machine, ring int
	crashed       bool
	tick          int
	stat          fleet.WindowStat
}

// ringAccum is one shard's cumulative soak telemetry for one ring — the
// numbers the health gate reads at the tick barrier. All fields commute
// under addition, so the fold order of batches never matters.
type ringAccum struct {
	intervals                  int64
	trips, windows, violations int
	misgated, truth0           int
	crashes                    int
}

// machineHealth is the per-machine health record a shard maintains from
// ingested telemetry. lastTick is the newest delivery tick folded for the
// machine — the heartbeat the lease layer reads.
type machineHealth struct {
	trips, windows, violations int
	misgated, truth0           int
	crashed                    bool
	lastTick                   int
}

// shard is one ingest partition: a bounded queue fed by producers and a
// consumer-owned health state. Machine m reports to shard m % Shards; the
// consumer goroutine is the only writer of rings/health after New, and the
// decider only reads them behind the pending barrier.
type shard struct {
	q       *parallel.Queue[[]interval]
	rings   []ringAccum
	health  map[int]*machineHealth
	batches int64
	// future holds intervals produced but not yet delivered (delayed or
	// behind a stalled window), keyed by delivery tick. Owned by the
	// shard's producer slot in telemetryStep — written and drained there,
	// never touched by the consumer.
	future map[int][]interval
}

// newShard builds one ingest partition. All shard queues share the
// "ctrlplane.ingest" instrumentation name, so the depth gauge tracks the
// total number of queued batches across the ingest layer and the blocked
// counter the total producer stalls — the backpressure signals.
func newShard(cfg Config, nrings int) *shard {
	return &shard{
		q:      parallel.NewQueue[[]interval]("ctrlplane.ingest", cfg.QueueDepth),
		rings:  make([]ringAccum, nrings),
		health: map[int]*machineHealth{},
		future: map[int][]interval{},
	}
}

// consume is the shard's consumer loop: drain batches, fold each into the
// shard-local health state, and release the tick barrier. Each batch fold
// is timed into the decision-latency histogram — folding a batch is the
// control plane serving one batch of window judgments.
func (s *Service) consume(sh *shard) {
	defer s.consumers.Done()
	buf := make([][]interval, 8)
	for {
		n := sh.q.PopBatch(buf)
		if n == 0 {
			return
		}
		for _, b := range buf[:n] {
			t0 := time.Now()
			sh.fold(b)
			s.lat.Observe(time.Since(t0))
			batchesIngested.Inc()
			intervalsIngested.Add(int64(len(b)))
			decisionsMade.Add(int64(len(b)))
			sh.batches++
			s.pending.Done()
		}
	}
}

// fold accumulates one batch into the shard's ring and machine state.
func (sh *shard) fold(b []interval) {
	for _, iv := range b {
		acc := &sh.rings[iv.ring]
		acc.intervals++
		mh := sh.health[iv.machine]
		if mh == nil {
			mh = &machineHealth{}
			sh.health[iv.machine] = mh
		}
		if iv.tick > mh.lastTick {
			mh.lastTick = iv.tick
		}
		if iv.crashed {
			if !mh.crashed {
				mh.crashed = true
				acc.crashes++
			}
			continue
		}
		acc.trips += iv.stat.Trips
		acc.windows++
		mh.trips += iv.stat.Trips
		mh.windows++
		if iv.stat.Violated {
			acc.violations++
			mh.violations++
		}
		acc.misgated += iv.stat.Misgated
		acc.truth0 += iv.stat.Truth0
		mh.misgated += iv.stat.Misgated
		mh.truth0 += iv.stat.Truth0
	}
}

// telemetryStep streams every soaking machine's intervals for this tick
// into the ingest queues: producers fan out per shard through the worker
// pool, batching intervals in machine order and blocking on the bounded
// queues when consumers fall behind (the backpressure contract). Under a
// fault plan each interval first resolves its delivery tick — delayed or
// stall-deferred intervals park in the shard's future stash and ship when
// their tick arrives. The pending group counts every pushed batch; Tick
// waits on it before deciding, so the decider always sees this tick's
// deliveries fully folded.
func (s *Service) telemetryStep() {
	nshards := len(s.shards)
	_ = parallel.ForEach(s.cfg.Workers, nshards, func(si int) error {
		sh := s.shards[si]
		batch := make([]interval, 0, s.cfg.BatchSize)
		flush := func() {
			if len(batch) == 0 {
				return
			}
			s.pending.Add(1)
			if !sh.q.PushOpen(batch) {
				// Shutdown race: the queue closed under us; the batch is
				// dropped, so release its barrier slot.
				s.pending.Done()
			}
			batch = make([]interval, 0, s.cfg.BatchSize)
		}
		// Deliveries that came due this tick ship first, in stash order.
		if due := sh.future[s.tick]; len(due) > 0 {
			delete(sh.future, s.tick)
			for _, iv := range due {
				batch = append(batch, iv)
				if len(batch) == s.cfg.BatchSize {
					flush()
				}
			}
		}
		for m := si; m < s.cfg.Machines; m += nshards {
			mc := &s.machines[m]
			if !mc.installed || mc.rolledBack || !mc.present ||
				s.rings[mc.ring].state != ringSoaking {
				continue
			}
			for k := 0; k < s.cfg.IntervalsPerTick; k++ {
				iv := s.synthesize(m, mc, k)
				if s.flt != nil {
					if due := s.flt.DeliveryTick(m, s.tick, k); due > s.tick {
						iv.tick = due
						sh.future[due] = append(sh.future[due], iv)
						continue
					}
				}
				batch = append(batch, iv)
				if len(batch) == s.cfg.BatchSize {
					flush()
				}
			}
		}
		flush()
		return nil
	})
}

// synthesize builds machine m's k-th telemetry interval for the current
// tick: a crashed machine reports its crash; a healthy one replays a
// hash-picked window of its soak profile, so the stream is a pure function
// of (seed, machine, tick, k) and every machine on the same trace and
// image reports the same window population.
func (s *Service) synthesize(m int, mc *machineCtl, k int) interval {
	if mc.crashed || mc.profile == nil || mc.profile.Health.Crashed || len(mc.profile.Windows) == 0 {
		return interval{machine: m, ring: mc.ring, crashed: true, tick: s.tick}
	}
	draw := s.tick*s.cfg.IntervalsPerTick + k
	wi := int(fault.HashU64(s.cfg.Seed^saltTel, m, draw) % uint64(len(mc.profile.Windows)))
	return interval{machine: m, ring: mc.ring, tick: s.tick, stat: mc.profile.Windows[wi]}
}
