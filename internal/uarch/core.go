package uarch

import (
	"time"

	"clustergate/internal/obs"
	"clustergate/internal/trace"
)

// Simulation throughput observability: instructions executed and
// retirement cycles advanced, summed over every Core in the process, plus
// a wall-latency histogram per Execute batch (one batch ≈ one telemetry
// interval, a few chunks). Two atomic adds and two clock reads per batch
// (typically 10k instructions), so the cost is invisible next to the
// timing model itself.
var (
	instrsSimulated = obs.NewCounter("uarch.instructions")
	cyclesSimulated = obs.NewCounter("uarch.cycles")
	executeLatency  = obs.NewHistogram("uarch.execute.batch")
)

const (
	// depWindow bounds how far back register dependencies reach; it must
	// cover trace generation's maximum dependency distance (512).
	depWindow = 1024
	// slotWindow is the cycle-ring span for issue-port bookkeeping. Stamped
	// entries make clearing unnecessary; the window just needs to exceed
	// the largest fetch-to-issue spread (ROB × memory latency).
	slotWindow = 1 << 16
	// fetchBlock is the instruction granularity of I-side cache probes.
	fetchBlock = 16
	// sqDrainDelay is how long a store occupies its queue slot after
	// completing, modelling post-retirement writeback.
	sqDrainDelay = 4
	// avgRegTransfers is the typical number of live registers copied when
	// gating Cluster 2 (worst case is Config.MaxRegTransfers).
	avgRegTransfers = 24
	// sqRingLen and lqRingLen are the store/load completion-ring sizes;
	// both are powers of two so ring indices reduce to a mask.
	sqRingLen = 64
	lqRingLen = 128
)

// Per-cycle port usage packs into one word per slot-ring entry:
//
//	[ epoch (44 bits) | stores1 stores0 (3+3) | loads1 loads0 (3+3) | issued1 issued0 (4+4) ]
//
// The epoch is the cycle number divided by slotWindow, so (epoch, ring
// index) identifies the owning cycle exactly and stale entries are
// discarded without sweeps. One 8-byte load answers every port question
// for a probe, and claiming a fresh cycle is a single 8-byte store. The
// count fields never overflow: each saturates at its configured budget
// (issue width ≤ 15, load/store ports ≤ 7) before another increment can
// happen. Virgin entries hold slotVirgin, an epoch no simulation reaches,
// so a never-touched slot can't masquerade as cycle 0 of epoch 0.
const (
	slotIssuedShift = 0  // + 4·cluster
	slotLoadsShift  = 8  // + 3·cluster
	slotStoresShift = 14 // + 3·cluster
	slotEpochShift  = 20
	slotVirgin      = ^uint64(0)
)

// modeParams holds the mode-derived constants of the timing pass,
// recomputed once per SetMode instead of per instruction.
type modeParams struct {
	// widths[0] is the front-end width in this mode, widths[1] the width
	// when the block decodes through the legacy pipe; indexing by the
	// legacy bit keeps the per-instruction width selection branch-free.
	widths [2]int
	rob    uint64 // speculation window
	single bool   // one active cluster (steer everything to cluster 0)
}

// coreConsts holds the config-derived constants of the timing pass,
// computed once at construction.
type coreConsts struct {
	decodeDepth uint64
	icDelay     uint64 // inter-cluster forwarding penalty
	mispen      uint64 // mispredict redirect cost
	divLat      uint64
	robCap      uint64 // wrong-path flush cap (shared ROB size)
	issueWidth  int    // per-cluster scheduler width
	loadPorts   int
	storePorts  int
	sq          uint64 // store-queue depth
	lq          uint64 // load-queue depth
	lqOn        bool   // load queue modelled (0 < lq ≤ ring size)
	l1dLat      uint64
	l2Lat       uint64
	memLat      uint64
	mshrOn      bool
	// memClassLat resolves the cache-resident access classes (memL1,
	// memL1TLB, memL2) to their fixed latencies so the load path only
	// branches on the single "reaches DRAM" condition.
	memClassLat [4]uint64
	opLUT       [16]uint32 // op field → timing flags and base latency
	bubbles     [8]uint64  // I-side bubble code → front-end stall cycles
}

// bumpTab maps (cluster, port kind) to the packed-slot increment word for
// one issued instruction: the issued-count bump plus the load- or
// store-port bump when the low two flag bits say so. Indexing by
// flags&3 (0 = neither, 1 = load, 2 = store) keeps the issue-loop setup
// free of data-dependent branches.
var bumpTab = func() (t [2][4]uint64) {
	for ci := 0; ci < 2; ci++ {
		base := uint64(1) << (slotIssuedShift + ci*4)
		t[ci][0] = base
		t[ci][1] = base | uint64(1)<<(slotLoadsShift+ci*3)
		t[ci][2] = base | uint64(1)<<(slotStoresShift+ci*3)
		t[ci][3] = base
	}
	return
}()

// Core is the cycle-level model of the dual-cluster CPU. One Core instance
// simulates one hardware context; create separate Cores to compare modes on
// the same trace.
type Core struct {
	cfg  Config
	mode Mode

	// Front-end (probe-side) state: caches, predictor, I-side cursor. A
	// core that replays a Tape has none of it — nil caches, and a hier
	// holding only the DRAM clocks the timing pass reads.
	hier         *Hierarchy
	icache       *Cache
	uopCache     *Cache
	itlb         *Cache
	bp           *Predictor
	lastBlock    uint64 // last fetch block probed on the I-side
	legacyDecode bool   // current block missed the µop cache
	probed       uint64 // instructions probed so far (the probe pass's idx)

	ev Events

	timingState
	slots [slotWindow]uint64 // per-cycle packed port-usage ring

	// Hoisted constants and per-batch scratch.
	mp      modeParams
	cc      coreConsts
	scratch execScratch

	// probeDone signals completion of this core's in-flight probe-pass job
	// on the shared probe pool (see pipeline.go). At most one job per core
	// is ever outstanding, so capacity 1 means neither side blocks.
	probeDone chan struct{}
}

// timingState is the machine state the timing pass advances, apart from
// the port-usage ring and the DRAM clocks: the part of a core a Tape's
// warm snapshot copies wholesale.
//
// The rings are fixed-size arrays rather than slices so every masked
// index is provably in bounds: the compiler drops all bounds checks from
// the timing loop.
type timingState struct {
	fc          uint64 // current fetch cycle
	fetchedInFC int    // instructions already fetched in cycle fc
	redirect    uint64 // earliest fetch cycle after a pending mispredict
	retireMax   uint64 // highest completion cycle seen (the clock)

	idx     uint64               // global dynamic instruction index
	comp    [depWindow]uint64    // completion cycle ring, indexed by idx
	cluster [depWindow]uint8     // cluster assignment ring, indexed by idx
	steer   uint8                // round-robin steering toggle
	divFree [2]uint64            // next cycle each cluster's divider is free
	sqDrain [2][sqRingLen]uint64 // per-cluster store-queue drain-cycle rings
	sqCount [2]uint64            // per-cluster store counters
	lqComp  [2][lqRingLen]uint64 // per-cluster load-queue completion rings
	lqCount [2]uint64            // per-cluster load counters
}

// NewCore returns a core in high-performance mode.
func NewCore(cfg Config) *Core { return NewCoreInMode(cfg, ModeHighPerf) }

// NewCoreInMode returns a core pinned to an initial mode.
func NewCoreInMode(cfg Config, m Mode) *Core {
	c := newTimingCore(cfg, m)
	c.hier.attachCaches()
	c.icache = NewCache(cfg.L1I)
	c.uopCache = NewCache(cfg.UopCache)
	c.itlb = NewCache(cfg.ITLB)
	c.bp = NewPredictor()
	c.lastBlock = ^uint64(0)
	c.probeDone = make(chan struct{}, 1)
	return c
}

// newTimingCore returns a core with timing state only: no caches, no
// predictor. It can replay a Tape but not Execute instructions.
func newTimingCore(cfg Config, m Mode) *Core {
	c := &Core{cfg: cfg, mode: m}
	c.hier = newDRAMChannel(&c.cfg)
	for i := range c.slots {
		c.slots[i] = slotVirgin
	}
	c.cc = coreConsts{
		decodeDepth: uint64(cfg.DecodeDepth),
		icDelay:     uint64(cfg.InterClusterDelay),
		mispen:      uint64(cfg.MispredictPenalty),
		divLat:      uint64(cfg.DivLatency),
		robCap:      uint64(cfg.ROBSize),
		issueWidth:  cfg.ClusterIssueWidth,
		loadPorts:   cfg.LoadPorts,
		storePorts:  cfg.StorePorts,
		sq:          uint64(cfg.StoreQueue),
		lq:          uint64(cfg.LoadQueue),
		lqOn:        cfg.LoadQueue > 0 && cfg.LoadQueue <= lqRingLen,
		l1dLat:      uint64(cfg.L1DLatency),
		l2Lat:       uint64(cfg.L2Latency),
		memLat:      uint64(cfg.MemLatency),
		mshrOn:      cfg.MSHRs > 0,
		opLUT:       buildOpLUT(&cfg),
		bubbles:     buildBubbleLUT(&cfg),
	}
	c.cc.memClassLat = [4]uint64{
		memL1:    uint64(cfg.L1DLatency),
		memL1TLB: uint64(cfg.L1DLatency) + 20, // page-walk cost
		memL2:    uint64(cfg.L2Latency),
	}
	c.applyMode()
	return c
}

// applyMode recomputes the mode-derived timing constants; called from the
// constructor and SetMode so the hot loop reads them as plain fields.
func (c *Core) applyMode() {
	w := c.cfg.fetchWidth(c.mode)
	c.mp.widths[0] = w
	c.mp.widths[1] = w
	if w > 4 {
		// µop-cache misses fall back to the legacy decode pipe, which
		// sustains at most 4 instructions per cycle.
		c.mp.widths[1] = 4
	}
	c.mp.rob = uint64(c.cfg.robSize(c.mode))
	c.mp.single = clusters(c.mode) == 1
}

// Mode returns the active cluster configuration.
func (c *Core) Mode() Mode { return c.mode }

// SetMemDerate scales the core's DRAM service gap by f (≤ 1 = nominal),
// the uarch-level injection point for DRAM-bandwidth degradation faults:
// unlike telemetry-class faults, a derate slows real execution, so IPC and
// every derived counter genuinely drop.
func (c *Core) SetMemDerate(f float64) { c.hier.SetMemDerate(f) }

// Cycles returns the core's retirement clock.
func (c *Core) Cycles() uint64 { return c.retireMax }

// Events returns a snapshot of cumulative event counts. StallCycles is
// derived at snapshot time as cycles minus busy cycles.
func (c *Core) Events() Events {
	ev := c.ev
	ev.Cycles = c.retireMax
	if ev.Cycles > ev.BusyCycles {
		ev.StallCycles = ev.Cycles - ev.BusyCycles
	}
	return ev
}

// SetMode performs the cluster-gating microcode flow (Section 3). Gating
// Cluster 2 copies live register state to Cluster 1, one µop per register,
// while execution continues; ungating is nearly free.
func (c *Core) SetMode(m Mode) {
	if m == c.mode {
		return
	}
	c.ev.ModeSwitches++
	cycles, uops := SwitchCost(c.cfg, m)
	c.ev.RegTransferUops += uint64(uops)
	c.ev.SwitchCycles += uint64(cycles)
	c.fc += uint64(cycles)
	c.mode = m
	c.applyMode()
}

// SwitchCost returns the cycle and register-transfer-µop cost SetMode
// charges for a transition into mode m. The surrogate's analytical layer
// uses it to patch mode-switch transients onto spliced steady-state
// recordings, so the microcode cost model lives in exactly one place.
func SwitchCost(cfg Config, m Mode) (cycles, regTransferUops int) {
	if m == ModeLowPower {
		uops := avgRegTransfers
		if uops > cfg.MaxRegTransfers {
			uops = cfg.MaxRegTransfers
		}
		return uops/cfg.ClusterIssueWidth + 4, uops
	}
	return 2, 0
}

// execChunk is the number of instructions processed per pass sweep. One
// chunk's words (8 B/instruction) plus its slice of the caller's batch
// stay resident in the L1/L2 caches across all three passes, so a large
// Execute batch never streams its scratch state through memory more than
// once. Chunking is pure batching — every pass still walks every
// instruction in program order — so counters are unaffected by the chunk
// size.
const execChunk = 2048

// Execute runs a batch of instructions through the timing model as
// struct-of-arrays passes over cache-sized chunks: probe the chunk into
// one front-end word per instruction in a program-order walk over the
// caches and predictor, crediting the front end's events on the way, then
// price everything in one tight arithmetic pass over the words.
// Cache and predictor state depend only on the instruction stream — never
// on timing — so the split is exact: counters are byte-identical to
// per-instruction interleaved execution at any batch size.
//
// The split also makes the passes independent across adjacent chunks: the
// probe pass for chunk k+1 touches only cache, predictor, and I-side state
// while the timing pass for chunk k touches only cycle rings and queue
// clocks, and the two write disjoint Events fields. Multi-chunk batches
// therefore run as a two-stage pipeline — chunk k+1 probes on a shared
// worker goroutine (pipeline.go) while chunk k is being priced here — with
// double-buffered scratch and per-chunk handoff through channels. Every
// pass still sees every instruction in program order, so counters remain
// byte-identical to the serial schedule.
func (c *Core) Execute(batch []trace.Instruction) {
	if len(batch) == 0 {
		return
	}
	before := c.retireMax
	total := len(batch)
	t0 := time.Now()
	c.scratch.grow(execChunk)

	if total > execChunk && probePoolReady() {
		c.executePipelined(batch)
	} else {
		words := c.scratch.words[0]
		for len(batch) > 0 {
			n := min(len(batch), execChunk)
			c.probePass(batch[:n], words[:n])
			c.timingPass(words[:n])
			batch = batch[n:]
		}
	}
	c.account(t0, before, total)
}

// account records one timed batch in the process-wide simulation
// counters and the per-batch latency histogram.
func (c *Core) account(t0 time.Time, before uint64, n int) {
	executeLatency.Observe(time.Since(t0))
	instrsSimulated.Add(int64(n))
	cyclesSimulated.Add(int64(c.retireMax - before))
}

// executePipelined overlaps chunk k+1's probe pass with chunk k's timing
// pass. At most one probe job per core is in flight, which serialises all
// cache and predictor mutations in program order; the received probeDone
// signal orders each buffer's writes before the timing pass reads them.
func (c *Core) executePipelined(batch []trace.Instruction) {
	k := 0
	probeJobs <- probeJob{c: c, batch: batch[:execChunk], words: c.scratch.words[0]}
	for len(batch) > 0 {
		n := min(len(batch), execChunk)
		<-c.probeDone
		if rest := batch[n:]; len(rest) > 0 {
			m := min(len(rest), execChunk)
			probeJobs <- probeJob{c: c, batch: rest[:m], words: c.scratch.words[(k+1)&1][:m]}
		}
		c.timingPass(c.scratch.words[k&1][:n])
		batch = batch[n:]
		k++
	}
}

// timingPass assigns fetch, ready, issue, and completion cycles to every
// instruction in the scratch slices. All machine state lives in local
// variables for the duration of the batch (written back at the end), all
// rings are indexed through power-of-two masks, and every config- or
// mode-derived quantity was hoisted at construction/SetMode time, so the
// loop body is branch-predictable integer arithmetic with no calls.
func (c *Core) timingPass(words []uint64) {
	n := len(words)
	h := c.hier

	comp := &c.comp
	clRing := &c.cluster
	slots := &c.slots
	sqd := &c.sqDrain
	lqc := &c.lqComp

	// Config- and mode-derived constants, copied into true locals: the
	// ring writes below go through pointers into c, so the compiler would
	// otherwise reload any field read through c (or a pointer into it)
	// after every store. Plain locals are provably unaliased.
	cc := &c.cc
	mp := &c.mp
	opLUT := cc.opLUT
	bubbles := cc.bubbles
	memClassLat := cc.memClassLat
	widths := mp.widths
	rob := mp.rob
	decodeDepth := cc.decodeDepth
	mispen := cc.mispen
	divLat := cc.divLat
	robCap := cc.robCap
	issueW := cc.issueWidth
	loadP := cc.loadPorts
	storeP := cc.storePorts
	sqDepth := cc.sq
	lqDepth := cc.lq
	lqOn := cc.lqOn
	l2Lat := cc.l2Lat
	memLat := cc.memLat

	// Machine state, batch-local.
	fc := c.fc
	fifc := c.fetchedInFC
	redirect := c.redirect
	retireMax := c.retireMax
	idx := c.idx
	steer := c.steer
	divFree := c.divFree
	sqCount := c.sqCount
	lqCount := c.lqCount
	memNextFree := h.memNextFree
	mshr := h.mshrNext
	gap := h.gap
	mshrGap := h.mshrGap

	// Event accumulators, flushed once after the loop. UopsReady needs no
	// counter: exactly one of {stalled-on-dep, ready} holds per
	// instruction, so it is n − stalledOnDep. Per-cluster issue counts use
	// a two-element array so the alternating steering pattern costs no
	// branch.
	var stalledOnDep, readyWait uint64
	var issueC [2]uint64
	var busy, crossFwd uint64
	var sqStall, sqOcc, wrongPath, redirCycles uint64

	// notSingle masks cluster choice and steering-toggle updates to
	// cluster 0 in gated mode; icd is the cross-cluster forwarding cost
	// (applied via a 0/1 multiplier, never a branch).
	notSingle := uint8(1)
	if mp.single {
		notSingle = 0
	}
	icd := cc.icDelay
	var mshrOn uint64
	if cc.mshrOn {
		mshrOn = 1
	}

	for _, w := range words {
		ov := opLUT[w>>wOpShift&15]
		fl := uint8(ov)

		// --- Fetch: I-side bubbles, width, redirects, ROB occupancy.
		// Every "advance the fetch cycle and restart the fetch group"
		// condition here is trace-random, so each one folds its reset into
		// a 0/−1 mask (g−1) instead of a branch; the checks still apply in
		// the original order because each mask lands before the next test.
		b := bubbles[w>>wISideShift&7]
		fc += b
		var gz int
		if b != 0 {
			gz = 1
		}
		fifc &= gz - 1
		width := widths[w>>wLegacyShift&1]
		var gw int
		if fifc >= width {
			gw = 1
		}
		fc += uint64(gw)
		fifc &= gw - 1
		var gr int
		if redirect > fc {
			gr = 1
		}
		fc = max(fc, redirect)
		fifc &= gr - 1
		// Speculation window: instruction i cannot be fetched until i-ROB
		// completes.
		if idx >= rob {
			free := comp[(idx-rob)&(depWindow-1)]
			var gb int
			if free > fc {
				gb = 1
			}
			fc = max(fc, free)
			fifc &= gb - 1
		}
		fifc++
		dispatch := fc + decodeDepth

		// --- Steering: short dependency chains follow their producer,
		// independent work alternates clusters; gated mode uses cluster 0.
		// Whether a chain is followed depends on the trace, so the choice
		// is computed without a data-dependent branch: the producer's
		// cluster is read unconditionally (the masked ring index is always
		// in bounds; the value is simply unused when there is no
		// producer), the steering toggle flips only for unsteered work,
		// and single-cluster mode masks everything to cluster 0 via
		// notSingle without touching the toggle. The probe pass already
		// reduced each distance to its ring offset and its presence and
		// follow conditions to word bits (depBits).
		j1 := (idx - w>>wDep1Shift) & (depWindow - 1)
		fb := uint8(w >> wFollowShift & 1)
		pcl := clRing[j1]
		steer ^= (fb ^ 1) & notSingle
		cl := steer ^ ((steer ^ pcl) & -fb)
		cl &= notSingle
		ci := cl & 1 // provably in-bounds index for the [2]-element state

		// --- Operand readiness: producer completion plus inter-cluster
		// forwarding delay. Both producer slots are resolved with
		// unconditional ring reads and masked arithmetic for the same
		// reason as steering: the presence, distance, and cluster of a
		// producer are trace-random, and mispredicted branches on them
		// would dominate the loop. A producer's completion (and its
		// cross-cluster forwarding cost) counts only when the producer
		// exists and is inside the window; the word's in-window bit
		// becomes a 0/−1 mask over the unconditional ring reads.
		ready := dispatch
		x1 := uint64((pcl ^ cl) & notSingle)
		m1 := -(w >> wDep1InShift & 1)
		v1 := (comp[j1] + x1*icd) & m1
		j2 := (idx - w>>wDep2Shift) & (depWindow - 1)
		x2 := uint64((clRing[j2] ^ cl) & notSingle)
		m2 := -(w >> wDep2InShift & 1)
		v2 := (comp[j2] + x2*icd) & m2
		crossFwd += x1&m1 + x2&m2
		depReady := max(v1, v2)
		var sd uint64
		if depReady > ready {
			sd = 1
		}
		stalledOnDep += sd
		ready = max(ready, depReady)

		// --- Memory side: the probe pass already classified every access;
		// here only the DRAM channel, MSHR, and queue clocks apply. The
		// arithmetic mirrors Hierarchy.timeData over batch-local clocks.
		// --- Memory clocks, queue reservations, issue, and completion
		// rings, fused into one branch per instruction kind. The kind is
		// trace-random, so the loop pays exactly one hard-to-predict
		// branch for all kind-specific work, and each kind carries a
		// specialized copy of the issue loop: first cycle ≥ ready with a
		// free port on this cluster, probing only the port fields that
		// kind can exhaust. A slot whose epoch is stale belongs to a
		// long-dead cycle; treating it as the current cycle with zero
		// counts folds the fresh-claim and partially-used cases into one
		// path, so each probe is a load, a few flag-set compares, and a
		// single almost-always-taken exit branch.
		lat := uint64(ov >> 8)
		cls := uint8(w) & clsClassMask
		shI := uint(ci) * 4
		var issue uint64
		if fl&flagLoad != 0 {
			// Cache-resident classes resolve through a latency LUT; only
			// the "reaches DRAM" condition branches, and it is strongly
			// biased one way per workload (rare when the footprint fits,
			// near-constant when it streams).
			if cls >= memPF {
				start := max(fc, memNextFree)
				memNextFree = start + gap
				if cls == memPF {
					lat = start - fc + l2Lat
				} else { // memDemand
					// MSHR throttling applies only to independent misses;
					// the condition is trace-random, so the clock update
					// runs unconditionally with a mask selecting between
					// the throttled and untouched values.
					var ind uint64
					if ready <= dispatch {
						ind = 1
					}
					ind &= mshrOn
					s := max(start, mshr[ci]&^(ind-1))
					nm := s + mshrGap
					if ind == 0 {
						nm = mshr[ci]
					}
					mshr[ci] = nm
					lat = s - fc + memLat
				}
			} else {
				lat = memClassLat[cls&3]
			}
			// Load-queue reservation: gated operation halves the
			// machine's aggregate load queue.
			nl := lqCount[ci]
			if lqOn && nl >= lqDepth {
				ready = max(ready, lqc[ci][(nl-lqDepth)&(lqRingLen-1)])
			}
			shL := slotLoadsShift + uint(ci)*3
			bump := uint64(1)<<shI | uint64(1)<<shL
			for t := ready; ; t++ {
				sl := &slots[t&(slotWindow-1)]
				v := *sl
				var fresh uint64
				if v>>slotEpochShift != t/slotWindow {
					fresh = 1
				}
				if fresh != 0 {
					v = t / slotWindow << slotEpochShift
				}
				var f1, f2 uint64
				if int(v>>shI&15) < issueW {
					f1 = 1
				}
				if int(v>>shL&7) < loadP {
					f2 = 1
				}
				if f1&f2 != 0 {
					*sl = v + bump
					busy += fresh
					issue = t
					break
				}
			}
			lqc[ci][nl&(lqRingLen-1)] = issue + lat
			lqCount[ci] = nl + 1
		} else if fl&flagStore != 0 {
			if cls >= memPF {
				// L2 miss: the writeback line still occupies the channel.
				memNextFree = max(fc, memNextFree) + gap
			}
			// Store-queue reservation and occupancy telemetry.
			ring := &sqd[ci]
			ncnt := sqCount[ci]
			if ncnt >= sqDepth {
				drain := ring[(ncnt-sqDepth)&(sqRingLen-1)]
				ex := max(drain, ready) - ready
				sqStall += ex
				ready += ex
			}
			occ := uint64(0)
			scan := min(sqDepth, ncnt)
			for k := uint64(1); k <= scan; k++ {
				var one uint64
				if ring[(ncnt-k)&(sqRingLen-1)] > ready {
					one = 1
				}
				occ += one
			}
			sqOcc += occ
			shS := slotStoresShift + uint(ci)*3
			bump := uint64(1)<<shI | uint64(1)<<shS
			for t := ready; ; t++ {
				sl := &slots[t&(slotWindow-1)]
				v := *sl
				var fresh uint64
				if v>>slotEpochShift != t/slotWindow {
					fresh = 1
				}
				if fresh != 0 {
					v = t / slotWindow << slotEpochShift
				}
				var f1, f3 uint64
				if int(v>>shI&15) < issueW {
					f1 = 1
				}
				if int(v>>shS&7) < storeP {
					f3 = 1
				}
				if f1&f3 != 0 {
					*sl = v + bump
					busy += fresh
					issue = t
					break
				}
			}
			ring[ncnt&(sqRingLen-1)] = issue + lat + sqDrainDelay
			sqCount[ci] = ncnt + 1
		} else {
			isDiv := fl&flagDiv != 0
			if isDiv {
				// Non-pipelined divider blocks the cluster's divide port.
				ready = max(ready, divFree[ci])
			}
			bump := uint64(1) << shI
			for t := ready; ; t++ {
				sl := &slots[t&(slotWindow-1)]
				v := *sl
				var fresh uint64
				if v>>slotEpochShift != t/slotWindow {
					fresh = 1
				}
				if fresh != 0 {
					v = t / slotWindow << slotEpochShift
				}
				if int(v>>shI&15) < issueW {
					*sl = v + bump
					busy += fresh
					issue = t
					break
				}
			}
			if isDiv {
				divFree[ci] = issue + divLat
			}
		}
		readyWait += issue - ready
		issueC[ci]++

		// --- Completion and retirement bookkeeping.
		complete := issue + lat
		j := idx & (depWindow - 1)
		comp[j] = complete
		clRing[j] = cl
		retireMax = max(retireMax, complete)

		// --- Branch resolution (direction precomputed by branchPass).
		if w&wMispredict != 0 {
			r := complete + mispen
			if r > redirect {
				// Wrong-path fetch between now and resolution is flushed.
				flushed := min((complete-fc)*uint64(width), robCap)
				wrongPath += flushed
				redirCycles += r - fc
				redirect = r
			}
		}
		idx++
	}

	// Write back machine state and flush event accumulators.
	c.fc = fc
	c.fetchedInFC = fifc
	c.redirect = redirect
	c.retireMax = retireMax
	c.idx = idx
	c.steer = steer
	c.divFree = divFree
	c.sqCount = sqCount
	c.lqCount = lqCount
	h.memNextFree = memNextFree
	h.mshrNext = mshr

	c.ev.Instrs += uint64(n)
	c.ev.UopsStalledOnDep += stalledOnDep
	c.ev.UopsReady += uint64(n) - stalledOnDep
	c.ev.ReadyWaitCycles += readyWait
	c.ev.IssueC0 += issueC[0]
	c.ev.IssueC1 += issueC[1]
	c.ev.BusyCycles += busy
	c.ev.CrossForwards += crossFwd
	c.ev.SQStallCycles += sqStall
	c.ev.SQOccupancySum += sqOcc
	c.ev.WrongPathUops += wrongPath
	c.ev.RedirectCycles += redirCycles
}
