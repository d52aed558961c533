package uarch

import (
	"encoding/binary"
	"unsafe"
)

// Checkpoint is a runner's timing state between two intervals in
// canonical, shift-free form: every clock is taken relative to the fetch
// cycle fc, so two runners whose states differ only by a common offset of
// all their clocks, or in clocks the future can no longer tell apart,
// encode to the same bytes. Equal bytes mean equal futures: a runner
// resumed from a checkpoint (Tape.Resume) reports, under any mode and
// DRAM-derate schedule, exactly the interval deltas every runner that
// encodes to it goes on to report under that schedule. The cumulative
// Events are not part of it, nor is the DRAM derate: each step of a
// schedule sets the derate before its interval, and SetMemDerate charges
// nothing, whereas SetMode charges a switch only when the mode changes, so
// the mode is state and the derate is not. A resumed runner starts at
// nominal bandwidth.
//
// The encoding keeps exactly what the timing pass reads whose value it
// can still tell apart:
//
//   - the dynamic instruction index idx, which fixes the tape position and
//     the ring alignment, the mode, fetchedInFC and the steering toggle;
//   - retireMax − fc, signed (fc can run ahead of the last completion
//     after a redirect or a mode switch). Events.Cycles is retireMax, so
//     each interval's Cycles delta depends on its exact value;
//   - the cluster ring, one bit per entry. Steering reads the producer's
//     cluster whatever the producer's age (a followed producer outside
//     the completion window still steers), so no entry can be dropped;
//   - the live port slots, those stamped with a cycle in [fc, retireMax]
//     (see Core.snapshot), keyed by cycle − fc in ring order from fc;
//   - the store- and load-queue rings rotated to their counters, each
//     counter capped at its queue depth and only the min(count, depth)
//     newest entries kept: the timing pass reads an entry only at an
//     offset of at most the depth behind the counter, and compares the
//     counter only with the depth;
//   - the clocks: redirect, the completion ring, divFree, the queue
//     rings, memNextFree and mshrNext, each clamped at fc − clockFloor.
//
// Why the clamp is exact: fc never decreases, and every read of those
// clocks takes a max (or a >) against a clock at least the fc current
// when it reads:
//
//   - the ROB check, comp[idx−rob] against fc;
//   - a producer's completion plus the forwarding penalty
//     (InterClusterDelay, for a consumer on the other cluster) against
//     dispatch = fc + DecodeDepth, and depReady > dispatch for the
//     stalled-on-dependency count;
//   - the load-queue ring, divFree and the store-queue ring's drain clock
//     against ready ≥ dispatch; the store-queue occupancy scan counts
//     entries > ready;
//   - memNextFree against fc; mshrNext against start ≥ fc, or carried
//     unchanged;
//   - redirect against fc, and a new resolution r > redirect, where
//     r = complete + MispredictPenalty > fc.
//
// A clock at or below fc − clockFloor therefore reads like fc − clockFloor
// in every one of these as long as clockFloor ≥ InterClusterDelay −
// DecodeDepth (the completion read is the only one with an offset added);
// AppendCheckpoint refuses a configuration where that fails. Any floor
// that holds this is exact, and a smaller one merges more histories. With
// the default core (penalty 2, depth 6) 0 would do; clockFloor is 64 to
// leave room for other configurations, and costs nothing measurable: with
// the exact relative clocks and no clamp, 38% of the simulations of a
// perfbench `study` run reached a state no other history had reached,
// against 2.9% at a 64-cycle floor and 2.7% at a 4,096-cycle one.
//
// Why the port ring survives the shift: a probe at cycle t reads slot
// t mod slotWindow and treats it as its own only when the stamp's epoch
// and the index give back t, an equality of absolute cycles that a common
// shift preserves. A slot stamped before fc is never probed as its own
// again (every probe is at a cycle ≥ dispatch ≥ fc) and reads as fresh,
// like a virgin one, so only the live slots are kept, and they are put
// back at their shifted cycles. Two slots that share an index in one
// state share it after any shift, so the overwrites between them replay
// the same way.
//
// How the deltas survive the rebase: Tape.Resume places fc at
// rebaseOrigin and every clock at its offset from it, on a core whose
// cumulative Events start at zero. Every Events field but StallCycles is
// a sum whose deltas do not depend on where it started, and Cycles is
// retireMax, whose deltas the shift preserves. StallCycles is derived
// from the cumulative Cycles − BusyCycles when Cycles > BusyCycles, and
// 0 otherwise. BusyCycles counts distinct issue cycles, each after
// DecodeDepth and at most retireMax, so Cycles ≥ BusyCycles holds at every
// interval boundary of a run started at cycle 0; on the resumed core
// BusyCycles starts at 0 and Cycles at rebaseOrigin plus retireMax − fc,
// so it holds there too, and both report StallCycles deltas as
// ΔCycles − ΔBusyCycles.
type Checkpoint string

const (
	// clockFloor is how far below the fetch cycle a checkpoint keeps
	// clocks exactly; an older clock is clamped to fc − clockFloor (see
	// Checkpoint for why that is exact).
	clockFloor = 64
	// rebaseOrigin is the fetch cycle a resumed runner restarts at. It
	// exceeds clockFloor, so no clamped clock underflows, and leaves the
	// epoch field of a port slot ample room.
	rebaseOrigin = 1 << 32
	// slotCountMask selects a port slot's count fields, below its epoch.
	slotCountMask = 1<<slotEpochShift - 1
)

// AppendCheckpoint appends the bytes of the runner's Checkpoint to b.
// A live runner and a tape runner at the same point of one stream under
// one schedule hold the same timing state and so encode the same bytes;
// only a tape can resume them.
func (r *Runner) AppendCheckpoint(b []byte) []byte {
	c, cc := r.c, &r.c.cc
	if cc.icDelay > cc.decodeDepth+clockFloor || cc.sq == 0 || cc.sq > sqRingLen {
		panic("uarch: the core's forwarding penalty or store queue is outside what a checkpoint encodes exactly")
	}
	fc := c.fc
	// rel is a clock's offset above fc − clockFloor, 0 at or below it.
	rel := func(v uint64) uint64 { return max(v+clockFloor, fc) - fc }

	b = binary.AppendUvarint(b, c.idx)
	b = append(b, byte(c.mode), c.steer)
	b = binary.AppendUvarint(b, uint64(c.fetchedInFC))
	b = binary.AppendVarint(b, int64(c.retireMax-fc))
	for _, v := range [...]uint64{c.redirect, c.divFree[0], c.divFree[1], c.hier.memNextFree, c.hier.mshrNext[0], c.hier.mshrNext[1]} {
		b = binary.AppendUvarint(b, rel(v))
	}

	var clocks [depWindow]uint64
	lqDepth := cc.lq
	if !cc.lqOn {
		lqDepth = 0 // never read
	}
	for ci := range 2 {
		n := min(c.sqCount[ci], cc.sq)
		for k := range n {
			clocks[k] = rel(c.sqDrain[ci][(c.sqCount[ci]-1-k)&(sqRingLen-1)])
		}
		b = appendClocks(binary.AppendUvarint(b, n), clocks[:n])
		n = min(c.lqCount[ci], lqDepth)
		for k := range n {
			clocks[k] = rel(c.lqComp[ci][(c.lqCount[ci]-1-k)&(lqRingLen-1)])
		}
		b = appendClocks(binary.AppendUvarint(b, n), clocks[:n])
	}
	for i, v := range c.comp {
		clocks[i] = rel(v)
	}
	b = appendClocks(b, clocks[:])

	var bits [depWindow / 8]byte
	for i, cl := range c.cluster {
		bits[i/8] |= cl << (i % 8)
	}
	b = append(b, bits[:]...)

	// The live slots fill the rest, in ring order from fc's index: an
	// order that depends only on cycle − fc. A live slot lies in
	// [fc, retireMax] (see Core.snapshot), so a span shorter than the ring
	// visits each live cycle at its own index; a longer one visits every
	// index once.
	if c.retireMax < fc {
		return b
	}
	prev := uint64(0)
	for i := range min(c.retireMax-fc+1, slotWindow) {
		j := (fc + i) & (slotWindow - 1)
		v := c.slots[j]
		if v == slotVirgin || (v>>slotEpochShift)*slotWindow+j < fc {
			continue
		}
		d := (v>>slotEpochShift)*slotWindow + j - fc
		b = binary.AppendVarint(b, int64(d-prev))
		b = binary.AppendUvarint(b, v&slotCountMask)
		prev = d
	}
	return b
}

// appendClocks appends clamped clocks as zigzag deltas from the clock
// before, a zero delta followed by the number of further equal clocks, so
// that a run of clamped completions costs two or three bytes.
func appendClocks(b []byte, vs []uint64) []byte {
	prev := uint64(0)
	for i := 0; i < len(vs); {
		d := vs[i] - prev
		prev = vs[i]
		b = binary.AppendVarint(b, int64(d))
		i++
		if d == 0 {
			run := i
			for i < len(vs) && vs[i] == prev {
				i++
			}
			b = binary.AppendUvarint(b, uint64(i-run))
		}
	}
	return b
}

// cpReader decodes a Checkpoint's bytes.
type cpReader []byte

func (r *cpReader) uvarint() uint64 {
	v, n := binary.Uvarint(*r)
	*r = (*r)[n:]
	return v
}

func (r *cpReader) varint() int64 {
	v, n := binary.Varint(*r)
	*r = (*r)[n:]
	return v
}

func (r *cpReader) byte() byte {
	v := (*r)[0]
	*r = (*r)[1:]
	return v
}

// clock decodes one clamped clock as a cycle of the resumed core, whose
// fetch cycle is rebaseOrigin.
func (r *cpReader) clock() uint64 { return rebaseOrigin - clockFloor + r.uvarint() }

// clocks decodes len(vs) clamped clocks that appendClocks wrote as cycles
// of the resumed core.
func (r *cpReader) clocks(vs []uint64) {
	prev := uint64(0)
	for i := 0; i < len(vs); {
		d := uint64(r.varint())
		prev += d
		vs[i] = rebaseOrigin - clockFloor + prev
		i++
		if d == 0 {
			for run := r.uvarint(); run > 0; run-- {
				vs[i] = vs[i-1]
				i++
			}
		}
	}
}

// Resume returns a runner that continues from cp, a checkpoint of a
// runner over this tape's stream, on a fresh timing core with its fetch
// cycle at rebaseOrigin: it reports interval deltas of interval
// instructions exactly as the checkpointed runner would have gone on to.
func (t *Tape) Resume(cp Checkpoint, interval int) *Runner {
	tapeReplays.Inc()
	rd := cpReader(unsafe.Slice(unsafe.StringData(string(cp)), len(cp)))
	idx := rd.uvarint()
	c := newTimingCore(t.cfg, Mode(rd.byte()))
	s := &c.timingState
	s.idx = idx
	s.steer = rd.byte()
	s.fetchedInFC = int(rd.uvarint())
	s.fc = rebaseOrigin
	s.retireMax = uint64(rebaseOrigin + rd.varint())
	s.redirect = rd.clock()
	s.divFree = [2]uint64{rd.clock(), rd.clock()}
	c.hier.memNextFree = rd.clock()
	c.hier.mshrNext = [2]uint64{rd.clock(), rd.clock()}

	var clocks [depWindow]uint64
	for ci := range 2 {
		n := rd.uvarint()
		rd.clocks(clocks[:n])
		for k := range n {
			s.sqDrain[ci][(n-1-k)&(sqRingLen-1)] = clocks[k]
		}
		s.sqCount[ci] = n
		n = rd.uvarint()
		rd.clocks(clocks[:n])
		for k := range n {
			s.lqComp[ci][(n-1-k)&(lqRingLen-1)] = clocks[k]
		}
		s.lqCount[ci] = n
	}
	rd.clocks(s.comp[:])
	for i := range s.cluster {
		s.cluster[i] = rd[i/8] >> (i % 8) & 1
	}
	rd = rd[depWindow/8:]

	for cyc := uint64(rebaseOrigin); len(rd) > 0; {
		cyc += uint64(rd.varint())
		c.slots[cyc&(slotWindow-1)] = cyc/slotWindow<<slotEpochShift | rd.uvarint()
	}

	r := &Runner{c: c, interval: interval, tape: t, pos: int(idx - t.start)}
	r.prev = c.Events()
	return r
}
