package uarch

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes a set-associative cache (or TLB, with LineBytes set
// to the page size).
type CacheConfig struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	if c.Ways <= 0 || c.LineBytes <= 0 {
		panic(fmt.Sprintf("uarch: invalid cache config %+v", c))
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets < 1 {
		sets = 1
	}
	// Round down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	return p
}

// EvictKind classifies what a cache access displaced.
type EvictKind uint8

const (
	EvictNone EvictKind = iota
	// EvictClean is a "silent" eviction: the line was not dirty, so no
	// writeback traffic was generated. The paper's counter 2 ("L2 Silent
	// Evictions") counts these at the L2.
	EvictClean
	EvictDirty
)

// tagValid and tagDirty are folded into every resident line's entry in
// Cache.tags, so the hit scan is a single masked word compare per way and
// the whole of a line's state — presence, identity, dirtiness — lives in
// the one word the scan already loaded; a probe touches no second array.
// A real tag can never collide with the bits: tags carry at most
// 64−lineBits−tagShift < 63 significant bits for any non-degenerate
// geometry (LineBytes ≥ 2 and Sets ≥ 2, as every shipped and tested
// geometry is).
const (
	tagValid uint64 = 1 << 63
	tagDirty uint64 = 1 << 62
)

// Cache is a set-associative cache with true LRU replacement and
// write-back, write-allocate semantics. Line state is held struct-of-arrays
// style in flat slices indexed arithmetically (set × ways + way), so the
// hit scan of an 8-way set reads one contiguous 64-byte run of tag words
// instead of chasing a per-set slice of 16-byte line structs.
type Cache struct {
	cfg      CacheConfig
	tags     []uint64 // tag | tagValid | tagDirty per resident way, 0 when invalid
	lru      []uint32 // last-touch tick per way
	fill     []uint8  // resident lines per set, saturating at ways
	ways     int
	setMask  uint64
	lineBits uint
	tagShift uint // significant bits in setMask, hoisted out of Access
	tick     uint32
}

// NewCache builds a cache from its geometry.
func NewCache(cfg CacheConfig) *Cache {
	nSets := cfg.Sets()
	c := &Cache{
		cfg:     cfg,
		tags:    make([]uint64, nSets*cfg.Ways),
		lru:     make([]uint32, nSets*cfg.Ways),
		fill:    make([]uint8, nSets),
		ways:    cfg.Ways,
		setMask: uint64(nSets - 1),
	}
	for b := cfg.LineBytes; b > 1; b >>= 1 {
		c.lineBits++
	}
	c.tagShift = uint(len64(c.setMask))
	return c
}

// Access looks up addr, allocating on miss. write marks the line dirty.
// It reports whether the access hit and what kind of line (if any) the
// allocation evicted.
func (c *Cache) Access(addr uint64, write bool) (hit bool, evicted EvictKind) {
	c.tick++
	lineAddr := addr >> c.lineBits
	set := int(lineAddr & c.setMask)
	base := set * c.ways
	tagV := lineAddr>>c.tagShift | tagValid

	// Hit scan: one word compare per way; validity is folded into the tag.
	// The shipped geometries are all 4- or 8-way, so those scans reduce to
	// a flat OR tree of per-way match bits over an array pointer with
	// compile-time bounds — no bounds checks and, unlike an early-exit
	// loop, no branch on the (data-random) hit way. Only the heavily
	// biased hit/miss decision itself branches.
	var m uint32
	switch c.ways {
	case 8:
		t := (*[8]uint64)(c.tags[base:])
		m = btag(t[0], tagV, 1) | btag(t[1], tagV, 2) |
			btag(t[2], tagV, 4) | btag(t[3], tagV, 8) |
			btag(t[4], tagV, 16) | btag(t[5], tagV, 32) |
			btag(t[6], tagV, 64) | btag(t[7], tagV, 128)
	case 4:
		t := (*[4]uint64)(c.tags[base:])
		m = btag(t[0], tagV, 1) | btag(t[1], tagV, 2) |
			btag(t[2], tagV, 4) | btag(t[3], tagV, 8)
	default:
		for i, t := range c.tags[base : base+c.ways] {
			if t&^tagDirty == tagV {
				m = 1 << i
				break
			}
		}
	}
	if m != 0 {
		w := base + bits.TrailingZeros32(m)
		c.lru[w] = c.tick
		// Unconditional read-modify-write of the tag word the scan already
		// pulled in: OR-ing zero for reads avoids a branch on the
		// trace-random load/store direction, and dirtiness lives in the tag
		// so no second array is touched.
		var dirty uint64
		if write {
			dirty = tagDirty
		}
		c.tags[w] |= dirty
		return true, EvictNone
	}

	// Miss: pick the victim exactly as the per-struct scan did — the last
	// invalid way if any exists, else the least recently used way. Sets
	// only ever fill (invalidation is whole-cache Reset), and the original
	// scan's "last invalid way wins" rule fills ways back to front, so
	// while the set holds f resident lines the victim is way ways−1−f —
	// no scan needed until the set is full.
	victim := 0
	if f := c.fill[set]; int(f) < c.ways {
		victim = c.ways - 1 - int(f)
		c.fill[set] = f + 1
	} else {
		// Full set: every way is valid, so only the LRU ticks matter.
		// Each (tick, way) pair packs into one word — tick in the high
		// bits, way index in the low bits — so a balanced min-reduction
		// tree of conditional moves finds the victim with a three-deep
		// dependency chain instead of a serial eight-long one. Ties on
		// the tick pick the lowest way, matching the original
		// first-minimum scan.
		switch c.ways {
		case 8:
			l := (*[8]uint32)(c.lru[base:])
			m := min(
				min(uint64(l[0])<<3|0, uint64(l[1])<<3|1),
				min(uint64(l[2])<<3|2, uint64(l[3])<<3|3),
			)
			m = min(m, min(
				min(uint64(l[4])<<3|4, uint64(l[5])<<3|5),
				min(uint64(l[6])<<3|6, uint64(l[7])<<3|7),
			))
			victim = int(m & 7)
		case 4:
			l := (*[4]uint32)(c.lru[base:])
			m := min(
				min(uint64(l[0])<<2|0, uint64(l[1])<<2|1),
				min(uint64(l[2])<<2|2, uint64(l[3])<<2|3),
			)
			victim = int(m & 3)
		default:
			var victimLRU uint32 = ^uint32(0)
			for i, l := range c.lru[base : base+c.ways] {
				if l < victimLRU {
					victim = i
					victimLRU = l
				}
			}
		}
	}

	v := base + victim
	if t := c.tags[v]; t != 0 {
		if t&tagDirty != 0 {
			evicted = EvictDirty
		} else {
			evicted = EvictClean
		}
	}
	nt := tagV
	if write {
		nt |= tagDirty
	}
	c.tags[v] = nt
	c.lru[v] = c.tick
	return false, evicted
}

// Reset invalidates the entire cache.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = 0
		c.lru[i] = 0
	}
	for i := range c.fill {
		c.fill[i] = 0
	}
	c.tick = 0
}

// btag returns bit when t matches tagV ignoring the dirty bit, else 0; it
// compiles to an and-compare plus a conditional move, so the hit scan's OR
// tree carries no branches.
func btag(t, tagV uint64, bit uint32) uint32 {
	if t&^tagDirty == tagV {
		return bit
	}
	return 0
}

// len64 returns the number of significant bits in mask (mask is 2^k - 1).
func len64(mask uint64) int {
	n := 0
	for mask != 0 {
		n++
		mask >>= 1
	}
	return n
}

// Data-access classes produced by Hierarchy.classify and consumed by the
// timing pass (and by Hierarchy.timeData for the standalone AccessData
// path). The class captures everything about an access that depends on
// cache state; the queueing delays layered on top depend only on timing
// state, which is what lets the hot loop split classification from timing.
const (
	memNone   uint8 = iota // not a memory access
	memL1                  // L1D hit
	memL1TLB               // L1D hit that also walked the DTLB
	memL2                  // L1D miss, L2 hit
	memPF                  // L2 miss covered by the stream prefetcher
	memDemand              // demand miss to DRAM
)

// classify's return byte carries the class in the low three bits plus the
// event-relevant side conditions: a DTLB miss (which can accompany any
// class; only the L1-hit case gets its own class) and what kind of line
// the L2 allocation displaced. Keeping events out of classify lets the
// probe pass histogram the bytes and credit all event counters once per
// chunk instead of once per access.
const (
	clsClassMask  uint8 = 0x07 // memNone … memDemand in bits 0-2
	clsTLBMiss    uint8 = 1 << 3
	clsEvictShift       = 4 // EvictKind in bits 4-5
)

// accumClassEvents credits every event counter implied by n accesses that
// classified identically: the per-direction base counts, the TLB walk, the
// cache-level hit/miss ladder, and any L2 eviction traffic. It is the one
// place the classify byte is decoded, shared by the per-access AccessData
// path and the batched probe-pass histogram.
func accumClassEvents(write bool, r uint8, n uint64, ev *Events) {
	if write {
		ev.Stores += n
	} else {
		ev.Loads += n
		ev.L1DReads += n
	}
	if r&clsTLBMiss != 0 {
		ev.DTLBMisses += n
	}
	switch EvictKind(r >> clsEvictShift & 3) {
	case EvictClean:
		ev.L2SilentEvictions += n
	case EvictDirty:
		ev.L2DirtyEvictions += n
	}
	switch r & clsClassMask {
	case memL1, memL1TLB:
		ev.L1DHits += n
	case memL2:
		ev.L1DMisses += n
		ev.L2Hits += n
	case memPF:
		ev.L1DMisses += n
		ev.L2Misses += n
		ev.PrefetchFills += n
	case memDemand:
		ev.L1DMisses += n
		ev.L2Misses += n
	}
}

// Hierarchy bundles the data-side cache levels and TLB and resolves a load
// or store to a latency, updating hit/miss/eviction statistics. It also
// enforces off-chip memory bandwidth: misses to DRAM are serviced at most
// one line per Config.MemGap cycles, which is what makes streaming
// workloads equally slow in both cluster configurations (and therefore
// gateable), as on real hardware.
type Hierarchy struct {
	L1D  *Cache
	L2   *Cache
	DTLB *Cache
	cfg  *Config

	memNextFree uint64 // earliest cycle the DRAM channel accepts a new line
	// derate scales the DRAM channel's per-line service gap (> 1 =
	// degraded memory-port throughput, as injected by fault.DRAMDerate);
	// values at or below 1 mean nominal bandwidth.
	derate float64
	// gap is the effective per-line DRAM service spacing: MemGap stretched
	// by any active derate. Recomputed at SetMemDerate time so the hot
	// loop never touches floating point.
	gap uint64
	// mshrGap is the per-miss spacing a finite MSHR file sustains
	// (MemLatency/MSHRs, rounded up); zero when MSHRs are unmodelled.
	mshrGap uint64

	// streams is a small next-line stream-prefetcher table (line
	// addresses whose successor has been prefetched). Sequential misses
	// hit here and bypass the MSHRs at near-L2 latency; random misses
	// take the demand path.
	streams    [8]uint64
	streamNext int

	// mshrNext throttles per-cluster demand misses to the steady-state
	// rate a finite MSHR file sustains (MSHRs per MemLatency cycles).
	mshrNext [2]uint64
}

// SetMemDerate scales the DRAM channel's per-line service gap by f,
// modelling degraded memory-port throughput (a failing DIMM, thermal
// throttling, a noisy neighbour on the memory bus). f ≤ 1 restores nominal
// bandwidth. Takes effect from the next DRAM access.
func (h *Hierarchy) SetMemDerate(f float64) {
	h.derate = f
	h.gap = uint64(h.cfg.MemGap)
	if f > 1 {
		h.gap = uint64(float64(h.cfg.MemGap)*f + 0.5)
	}
}

// NewHierarchy builds the data-side hierarchy for cfg.
func NewHierarchy(cfg *Config) *Hierarchy {
	h := newDRAMChannel(cfg)
	h.attachCaches()
	return h
}

// newDRAMChannel returns a hierarchy with the DRAM channel and MSHR clocks
// only — all a tape-replaying core's timing pass reads — and no caches.
func newDRAMChannel(cfg *Config) *Hierarchy {
	h := &Hierarchy{cfg: cfg, gap: uint64(cfg.MemGap)}
	if cfg.MSHRs > 0 {
		h.mshrGap = uint64((cfg.MemLatency + cfg.MSHRs - 1) / cfg.MSHRs)
	}
	return h
}

// attachCaches allocates the cache levels and TLB classify walks.
func (h *Hierarchy) attachCaches() {
	h.L1D = NewCache(h.cfg.L1D)
	h.L2 = NewCache(h.cfg.L2)
	h.DTLB = NewCache(h.cfg.DTLB)
}

// classify walks the DTLB, L1D, L2, and stream-prefetcher state for one
// access in program order and returns its classify byte (class plus side
// conditions — see clsTLBMiss). It performs every cache-state mutation of
// the access but no timing and no event accounting: the class plus the
// caller's clock fully determine the latency, and the returned byte fully
// determines the event deltas (accumClassEvents).
func (h *Hierarchy) classify(addr uint64, write bool) uint8 {
	var r uint8
	if hit, _ := h.DTLB.Access(addr, false); !hit {
		r = clsTLBMiss
	}
	if hit, _ := h.L1D.Access(addr, write); hit {
		if r != 0 {
			return memL1TLB | r
		}
		return memL1
	}
	l2hit, evict := h.L2.Access(addr, write)
	r |= uint8(evict) << clsEvictShift
	if l2hit {
		return memL2 | r
	}
	if !h.cfg.DisablePrefetch && h.streamHit(addr>>6) {
		return memPF | r
	}
	return memDemand | r
}

// timeData resolves a classified access to its latency at cycle now on
// cluster cl, advancing the DRAM-channel and MSHR clocks. independent
// marks accesses whose operands were ready at dispatch: they form the
// burst of concurrent demand misses that a finite MSHR file throttles,
// while chain-dependent misses spread out in time on their own. The hot
// loop inlines this arithmetic over batch-local copies of the clocks; the
// two must stay in lockstep.
func (h *Hierarchy) timeData(class uint8, now uint64, cl uint8, independent bool) int {
	switch class {
	case memL1:
		return h.cfg.L1DLatency
	case memL1TLB:
		return h.cfg.L1DLatency + 20 // page-walk cost
	case memL2:
		return h.cfg.L2Latency
	}
	// DRAM: queue behind the channel when misses arrive faster than one
	// line per MemGap cycles (stretched by any active bandwidth derate).
	start := now
	if h.memNextFree > start {
		start = h.memNextFree
	}
	h.memNextFree = start + h.gap
	if class == memPF {
		// The stream prefetcher already requested this line: the access
		// completes at near-L2 latency (or when the DRAM channel delivers
		// it, whichever is later), without holding an MSHR.
		return int(start-now) + h.cfg.L2Latency
	}
	// Demand miss: a cluster's finite MSHR file sustains at most MSHRs
	// outstanding misses, i.e. MSHRs/MemLatency misses per cycle. Phases
	// whose intrinsic memory parallelism exceeds the gated machine's half-
	// sized file lose throughput in low-power mode; chain-limited phases
	// never notice.
	if h.mshrGap > 0 && independent {
		if h.mshrNext[cl] > start {
			start = h.mshrNext[cl]
		}
		h.mshrNext[cl] = start + h.mshrGap
	}
	return int(start-now) + h.cfg.MemLatency
}

// AccessData performs a data access at cycle now on cluster cl and
// returns its latency, recording event deltas into ev. It composes
// classify (cache-state walk) with timeData (queueing); Core's batch
// kernel runs the same two halves in separate passes.
func (h *Hierarchy) AccessData(addr uint64, write bool, now uint64, cl uint8, independent bool, ev *Events) int {
	r := h.classify(addr, write)
	accumClassEvents(write, r, 1, ev)
	return h.timeData(r&clsClassMask, now, cl, independent)
}

// streamHit checks (and trains) the next-line prefetcher: an access to
// line L hits if L-1 missed recently; either way L is recorded so the
// successor line is covered.
func (h *Hierarchy) streamHit(line uint64) bool {
	hit := false
	for i, l := range h.streams {
		if l == line-1 || l == line {
			h.streams[i] = line
			hit = l == line-1 || l == line
			return hit
		}
	}
	h.streams[h.streamNext] = line
	h.streamNext = (h.streamNext + 1) & 7
	return false
}
