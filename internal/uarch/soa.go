package uarch

import "clustergate/internal/trace"

// This file holds the struct-of-arrays half of the Execute hot loop: the
// front-end word every instruction is reduced to, the probe pass that
// produces the words, and the histogram that credits the front end's
// Events fields from them. Splitting the work this way keeps each pass's
// working set small and its branches predictable — the probe pass touches
// only cache and predictor tables, the timing pass only the words and the
// cycle rings — while the strict program-order walk inside every stateful
// pass keeps all counters byte-identical to the old per-instruction
// interleaving (locked by TestGoldenCounters and the determinism tests).
//
// The word is also the unit of a Tape (tape.go): it holds everything the
// timing pass reads and everything the event credit needs, so a recorded
// word stream replays an instruction stream exactly without regenerating
// or re-probing it.

// Front-end word layout, one uint64 per instruction:
//
//	bits  0-5   classify byte: access class (memNone … memDemand), DTLB
//	            miss (clsTLBMiss), L2 eviction kind (clsEvictShift)
//	bit   6     store
//	bit   7     memory access (load or store)
//	bits  8-11  op class; ops outside the known classes record as OpALU
//	bit   12    branch taken
//	bit   13    branch mispredicted
//	bit   14    first instruction of a fetch block (the I-side was probed)
//	bits 15-17  I-side misses on that probe: ITLB, L1I, L2 (bubble code)
//	bit   18    legacy decode: the fetch block missed the µop cache
//	bits 19-28  Dep1 distance mod depWindow, when in window
//	bits 29-38  Dep2 distance mod depWindow, when in window
//	bits 39-40  Dep1 > 0, Dep2 > 0 (source-register reads)
//	bits 41-42  Dep1, Dep2 in window: 0 < distance ≤ instruction index
//	bit   43    Dep1 followed by steering: distance 1-3 and in window
//
// The low byte indexes wordHist's data-access bins directly, and bits
// 8-13 its op/branch bins.
const (
	wStore       uint64 = 1 << 6
	wMem         uint64 = 1 << 7
	wOpShift            = 8
	wTaken       uint64 = 1 << 12
	wMispredict  uint64 = 1 << 13
	wBlock       uint64 = 1 << 14
	wISideShift         = 15
	wLegacyShift        = 18
	wDep1Shift          = 19
	wDep2Shift          = 29
	wDep1Pos     uint64 = 1 << 39
	wDep2Pos     uint64 = 1 << 40
	wDep1InShift        = 41
	wDep2InShift        = 42
	wFollowShift        = 43
)

// I-side bubble-code bits (word bits 15-17, shifted down).
const (
	isideITLBMiss uint64 = 1 << iota
	isideL1IMiss
	isideL2Miss
)

// Instruction flags derived from the op class, used by the timing pass.
const (
	flagLoad uint8 = 1 << iota
	flagStore
	flagBranch
	flagDiv
)

// opCodes maps an instruction's op byte to the 4-bit op field of its word:
// the op itself for the known classes, OpALU for anything else (an op a
// decoded trace may carry but the model does not distinguish).
var opCodes = func() (t [256]uint8) {
	for op := trace.OpALU; op <= trace.OpBranch; op++ {
		t[op] = uint8(op)
	}
	return
}()

// buildOpLUT maps an op field to its timing-pass flags (low byte) and base
// execution latency (bits 8+), so the hot loop resolves both with a single
// table load. Loads map to latency zero because their latency always comes
// from the memory class; every other op defaults to a single cycle.
func buildOpLUT(cfg *Config) (t [16]uint32) {
	for i := range t {
		t[i] = 1 << 8
	}
	lat := func(op trace.OpClass, l int) { t[op] = t[op]&0xff | uint32(l)<<8 }
	fl := func(op trace.OpClass, f uint8) { t[op] |= uint32(f) }
	fl(trace.OpLoad, flagLoad)
	fl(trace.OpStore, flagStore)
	fl(trace.OpBranch, flagBranch)
	fl(trace.OpDiv, flagDiv)
	fl(trace.OpFPDiv, flagDiv)
	lat(trace.OpMul, 3)
	lat(trace.OpFPAdd, 4)
	lat(trace.OpFPMul, 4)
	lat(trace.OpDiv, cfg.DivLatency)
	lat(trace.OpFPDiv, cfg.DivLatency)
	lat(trace.OpLoad, 0)
	return
}

// buildBubbleLUT maps an I-side bubble code to the front-end stall it
// charges: a page walk for an ITLB miss, plus the L2 or half the memory
// latency for an L1I miss.
func buildBubbleLUT(cfg *Config) (t [8]uint64) {
	for code := range t {
		var b uint64
		if uint64(code)&isideITLBMiss != 0 {
			b += 20
		}
		if uint64(code)&isideL1IMiss != 0 {
			if uint64(code)&isideL2Miss != 0 {
				b += uint64(cfg.MemLatency) / 2
			} else {
				b += uint64(cfg.L2Latency)
			}
		}
		t[code] = b
	}
	return
}

// execScratch holds two word buffers so the probe pass for chunk k+1 can
// run concurrently with the timing pass for chunk k (see Execute). The
// buffers are grown once to the chunk size and reused for every subsequent
// Execute call, so steady-state execution performs no heap allocations
// (pinned by TestExecuteZeroAllocs).
type execScratch struct {
	words [2][]uint64
}

func (s *execScratch) grow(n int) {
	for i := range s.words {
		if cap(s.words[i]) < n {
			s.words[i] = make([]uint64, n)
			continue
		}
		s.words[i] = s.words[i][:n]
	}
}

// probePass walks the chunk once in program order, resolving everything
// that depends on machine state other than timing: the I-side structures
// and the data-side hierarchy (in the one order that matters, because the
// L2 is shared between instruction and data misses), plus the branch
// predictor — its tables are disjoint from every cache, so resolving
// directions in the same sweep reorders nothing observable. Each
// instruction's outcome, op and dependency distances land in its word.
// Cache and predictor state depend only on the instruction stream, never
// on timing, which is what makes hoisting this pass out of the timing loop
// exact — and what lets Execute run it on a separate goroutine from the
// timing pass: the two touch disjoint Core state (caches/predictor/I-side
// vs. cycle rings). The pass also credits the chunk's front-end events
// (see wordHist), which the timing pass never writes.
func (c *Core) probePass(batch []trace.Instruction, words []uint64) {
	h := c.hier
	bp := c.bp
	lastBlock := c.lastBlock
	legacy := c.legacyDecode
	idx := c.probed
	var hist wordHist
	for i := range batch {
		in := &batch[i]
		op := opCodes[in.Op]
		w := uint64(op)<<wOpShift | depBits(in.Dep1, in.Dep2, idx)
		// One I-side probe per fetch block (fetchBlock instructions of 4
		// bytes each = one 64-byte block).
		if block := in.PC / (fetchBlock * 4); block != lastBlock {
			lastBlock = block
			var code uint64
			code, legacy = c.probeISideBlock(in.PC)
			w |= wBlock | code<<wISideShift
		}
		if legacy {
			w |= 1 << wLegacyShift
		}
		switch op {
		case uint8(trace.OpLoad):
			w |= uint64(h.classify(in.Addr, false)) | wMem
		case uint8(trace.OpStore):
			w |= uint64(h.classify(in.Addr, true)) | wMem | wStore
		case uint8(trace.OpBranch):
			if in.Taken {
				w |= wTaken
			}
			if bp.PredictAndUpdate(in.PC, in.Taken) {
				w |= wMispredict
			}
		}
		words[i] = w
		hist.add(w)
		idx++
	}
	c.lastBlock = lastBlock
	c.legacyDecode = legacy
	c.probed = idx
	c.credit(&hist)
}

// depBits encodes an instruction's two dependency distances, as the
// timing pass reads them at dynamic index idx: whether each source exists
// (distance > 0), whether its producer is inside the trace so far
// (distance ≤ idx), the ring offset of an in-window producer, and whether
// steering follows the first producer (distance 1-3). Every condition is
// trace-random, so each becomes a 0/1 flag rather than a branch.
func depBits(d1, d2 int32, idx uint64) uint64 {
	var p1, p2, in1, in2, f uint64
	if d1 > 0 {
		p1 = 1
	}
	if d2 > 0 {
		p2 = 1
	}
	if uint64(int64(d1)) <= idx {
		in1 = p1
	}
	if uint64(int64(d2)) <= idx {
		in2 = p2
	}
	if uint32(d1)-1 < 3 { // d1 ∈ {1,2,3}, one unsigned compare
		f = in1
	}
	off1 := uint64(d1) & (depWindow - 1) & -in1
	off2 := uint64(d2) & (depWindow - 1) & -in2
	return off1<<wDep1Shift | off2<<wDep2Shift |
		p1*wDep1Pos | p2*wDep2Pos |
		in1<<wDep1InShift | in2<<wDep2InShift | f<<wFollowShift
}

// probeISideBlock models the micro-op cache, instruction cache, and ITLB
// for a new fetch block, returning the block's bubble code and whether it
// decodes through the legacy pipe.
func (c *Core) probeISideBlock(pc uint64) (code uint64, legacy bool) {
	if hit, _ := c.itlb.Access(pc, false); !hit {
		code |= isideITLBMiss
	}
	if hit, _ := c.uopCache.Access(pc, false); !hit {
		legacy = true
		if l1hit, _ := c.icache.Access(pc, false); !l1hit {
			code |= isideL1IMiss
			if l2hit, _ := c.hier.L2.Access(pc, false); !l2hit {
				code |= isideL2Miss
			}
		}
	}
	return code, legacy
}

// wordHist histograms front-end words by the bits their events depend
// on. Every Events field the front end determines — the I-side, branch,
// data-access and op-mix counts, and source-register reads — is a function
// of these bins, so crediting a run of words costs a few increments per
// word plus one decode per bin (credit). Live execution fills a histogram
// inside the probe pass and tape replay fills one from the recorded words
// (creditWords); both credit through the same decoder, which is what makes
// a replay's Events equal the live run's field for field.
type wordHist struct {
	mem     [256]uint32 // word bits 0-7: classify byte, store, memory access
	op      [64]uint32  // word bits 8-13: op, taken, mispredicted
	block   [16]uint32  // word bits 15-18 of fetch-block heads: bubble code, legacy
	regRefs uint64
}

func (h *wordHist) add(w uint64) {
	h.mem[w&0xff]++
	h.op[w>>wOpShift&63]++
	if w&wBlock != 0 {
		h.block[w>>wISideShift&15]++
	}
	h.regRefs += w>>39&1 + w>>40&1
}

// creditWords credits the front-end events of a run of recorded words.
func (c *Core) creditWords(words []uint64) {
	var hist wordHist
	for _, w := range words {
		hist.add(w)
	}
	c.credit(&hist)
}

// credit adds a histogram's front-end events to the core's Events.
func (c *Core) credit(h *wordHist) {
	ev := &c.ev
	for r, n := range h.mem[wMem:] {
		if n != 0 {
			accumClassEvents(r&int(wStore) != 0, uint8(r&63), uint64(n), ev)
		}
	}
	var ops [16]uint64
	for k, n := range h.op {
		ops[k&15] += uint64(n)
		if uint64(k)<<wOpShift&wTaken != 0 {
			ev.TakenBranches += uint64(n)
		}
		if uint64(k)<<wOpShift&wMispredict != 0 {
			ev.Mispredicts += uint64(n)
		}
	}
	ev.Branches += ops[trace.OpBranch]
	ev.MulOps += ops[trace.OpMul]
	ev.FPOps += ops[trace.OpFPAdd] + ops[trace.OpFPMul] + ops[trace.OpFPDiv]
	ev.DivOps += ops[trace.OpDiv] + ops[trace.OpFPDiv]
	for k, n := range h.block {
		if n == 0 {
			continue
		}
		cnt, code := uint64(n), uint64(k)&7
		if code&isideITLBMiss != 0 {
			ev.ITLBMisses += cnt
		}
		switch {
		case k>>3 == 0:
			ev.UopCacheHits += cnt
		case code&isideL1IMiss != 0:
			ev.UopCacheMisses += cnt
			ev.L1IMisses += cnt
		default:
			ev.UopCacheMisses += cnt
			ev.L1IHits += cnt
		}
		ev.FetchBubbles += cnt * c.cc.bubbles[code]
	}
	ev.PhysRegRefs += h.regRefs
}
