package uarch

import (
	"math"
	"runtime"
	"slices"
	"time"
	"unsafe"

	"clustergate/internal/obs"
	"clustergate/internal/trace"
)

// Tape observability: tapes recorded, runs replayed from a tape, and the
// bytes tapes hold (the gauge's peak lands in run manifests as
// "uarch.tape.bytes.peak"). A tape's bytes are released when the garbage
// collector frees it, so the level counts unreachable tapes until the next
// collection — as the process's memory does.
var (
	tapesRecorded = obs.NewCounter("uarch.tape.records")
	tapeReplays   = obs.NewCounter("uarch.tape.replays")
	tapeBytes     = obs.NewGauge("uarch.tape.bytes")
)

// Source supplies instructions in program order, filling buf and
// reporting how many it produced; 0 means the stream is exhausted.
// *trace.Stream is a Source.
type Source interface {
	Read(buf []trace.Instruction) int
}

// Tape is an instruction stream's front end, recorded once so the stream
// can be timed many times. Recording runs generation and the probe pass —
// caches, TLBs and branch predictor, which depend only on the instruction
// stream — and keeps each instruction's front-end word. Replaying runs
// only the event credit and the timing pass over the words, under any
// SetMode/SetMemDerate schedule, and yields Events equal field for field
// to live execution of the same stream under the same schedule and batch
// boundaries.
//
// The words are dictionary-coded: a generated trace has some 20k
// distinct words in 600k instructions, so each instruction costs a 2-byte
// code plus its share of the dictionary, about 2.3 B in all. A stream
// with more distinct words than a 2-byte code can index (decoded traces
// can have that) keeps its words raw, at 8 B each.
//
// A warm tape (RecordTape with warmup > 0) also times the first warmup
// instructions in high-performance mode at nominal DRAM bandwidth while
// recording, and keeps the resulting timing state in place of their
// words, so every replay resumes where that warmup ended.
//
// A Tape is immutable once recorded and safe for concurrent replays.
type Tape struct {
	cfg Config
	// The words of the instructions after the warmup: word i is
	// dict[codes[i]], or words[i] when the tape is raw (words != nil).
	dict  []uint64
	codes []uint16
	words []uint64
	warm  *snapshot
	held  *heldBytes
}

// heldBytes keeps a tape's bytes in the uarch.tape.bytes gauge until the
// tape is collected. The finalizer sits on this small object rather than
// on the Tape because a finalizer keeps everything its object references
// alive for one more collection: on the Tape it would hold the words too.
// (16 bytes, so the tiny allocator, whose objects may never be finalized,
// does not take it.)
type heldBytes struct{ n, _ int64 }

// snapshot is a core's timing state after a warmup: everything the
// timing pass reads, plus the cumulative Events.
type snapshot struct {
	warmup   int // instructions the recording asked to warm up with
	state    timingState
	ev       Events
	memNext  uint64
	mshrNext [2]uint64
	// The port-usage ring is kept sparsely: only slots for cycles at or
	// after the fetch cycle (see Core.snapshot).
	slotIdx []uint32
	slotVal []uint64
}

// recordBatch is how many instructions RecordTape reads per batch.
const recordBatch = 4 * execChunk

// RecordTape reads src to exhaustion through the front end of a fresh
// core configured by cfg and returns the recorded tape. With warmup > 0
// the first warmup instructions are executed in high-performance mode
// rather than recorded, and the tape keeps the timing state they leave.
func RecordTape(cfg Config, src Source, warmup int) *Tape {
	c := NewCoreInMode(cfg, ModeHighPerf)
	t := &Tape{cfg: cfg}
	if r, ok := src.(interface{ Remaining() int }); ok {
		t.codes = make([]uint16, 0, max(r.Remaining()-warmup, 0))
	}
	buf := make([]trace.Instruction, recordBatch)
	if warmup > 0 {
		for done := 0; done < warmup; {
			k := src.Read(buf[:min(warmup-done, len(buf))])
			if k == 0 {
				break
			}
			c.Execute(buf[:k])
			done += k
		}
		t.warm = c.snapshot()
		t.warm.warmup = warmup
	}
	words := make([]uint64, recordBatch)
	index := make(map[uint64]uint16)
	for {
		k := src.Read(buf)
		if k == 0 {
			break
		}
		c.probePass(buf[:k], words[:k])
		t.append(words[:k], index)
	}
	t.dict = slices.Clone(t.dict) // drop append's spare capacity
	tapesRecorded.Inc()
	t.held = &heldBytes{n: int64(t.size())}
	tapeBytes.Add(t.held.n)
	runtime.SetFinalizer(t.held, func(h *heldBytes) { tapeBytes.Add(-h.n) })
	return t
}

// append adds recorded words to the tape, coding each through index (word
// → code) until a word would need a code past the 2-byte range; from then
// on the tape is raw.
func (t *Tape) append(ws []uint64, index map[uint64]uint16) {
	if t.words != nil {
		t.words = append(t.words, ws...)
		return
	}
	for i, w := range ws {
		code, ok := index[w]
		if !ok && len(t.dict) > math.MaxUint16 {
			t.words = t.span(0, len(t.codes), make([]uint64, len(t.codes), cap(t.codes)))
			t.words = append(t.words, ws[i:]...)
			t.dict, t.codes = nil, nil
			return
		}
		if !ok {
			code = uint16(len(t.dict))
			index[w] = code
			t.dict = append(t.dict, w)
		}
		t.codes = append(t.codes, code)
	}
}

// len returns the number of recorded words.
func (t *Tape) len() int {
	if t.words != nil {
		return len(t.words)
	}
	return len(t.codes)
}

// span returns words [i, j) of the tape, decoding them into buf (of at
// least j−i words) unless the tape is raw.
func (t *Tape) span(i, j int, buf []uint64) []uint64 {
	if t.words != nil {
		return t.words[i:j]
	}
	buf = buf[:j-i]
	dict := t.dict
	for k, code := range t.codes[i:j] {
		buf[k] = dict[code]
	}
	return buf
}

// size returns the memory the tape holds: its codes and dictionary or its
// raw words, plus the warm snapshot, which replaces the warmup's words.
func (t *Tape) size() int {
	n := 2*cap(t.codes) + 8*cap(t.dict) + 8*cap(t.words)
	if s := t.warm; s != nil {
		n += int(unsafe.Sizeof(*s)) + 4*cap(s.slotIdx) + 8*cap(s.slotVal)
	}
	return n
}

// snapshot captures the core's timing state.
func (c *Core) snapshot() *snapshot {
	s := &snapshot{
		state:    c.timingState,
		ev:       c.ev,
		memNext:  c.hier.memNextFree,
		mshrNext: c.hier.mshrNext,
	}
	// Every future issue probe is at a cycle ≥ dispatch ≥ fc, so a slot
	// stamped with an earlier cycle can never match again: like a virgin
	// slot, it only ever reads as stale. Only the live slots are kept.
	for i, v := range c.slots {
		if v != slotVirgin && (v>>slotEpochShift)*slotWindow+uint64(i) >= c.fc {
			s.slotIdx = append(s.slotIdx, uint32(i))
			s.slotVal = append(s.slotVal, v)
		}
	}
	return s
}

// restore loads a snapshot into a fresh core in high-performance mode.
func (c *Core) restore(s *snapshot) {
	c.timingState = s.state
	c.ev = s.ev
	c.hier.memNextFree = s.memNext
	c.hier.mshrNext = s.mshrNext
	for k, i := range s.slotIdx {
		c.slots[i&(slotWindow-1)] = s.slotVal[k]
	}
}

// replay times tape words [i, j): the event credit and timing pass of
// Execute, without the probe pass the words already stand for.
func (c *Core) replay(t *Tape, i, j int) {
	if i == j {
		return
	}
	before := c.retireMax
	t0 := time.Now()
	c.scratch.grow(execChunk)
	for k := i; k < j; k += execChunk {
		words := t.span(k, min(j, k+execChunk), c.scratch.words[0])
		c.creditWords(words)
		c.timingPass(words)
	}
	c.account(t0, before, j-i)
}

// Runner steps a core through an instruction stream one fixed-size
// interval at a time, reporting each interval's Events delta: the loop
// every closed-loop consumer of the model (telemetry recording,
// deployment, surrogate training) runs. The first warmup instructions are
// executed without being reported. Between intervals the caller may
// change the core's mode and DRAM derate.
//
// A live runner (NewRunner) generates and probes the stream as it goes; a
// tape runner (Tape.Runner) replays recorded words. Under the same
// schedule both report identical deltas.
type Runner struct {
	c        *Core
	interval int
	prev     Events

	tape *Tape  // tape runners only
	pos  int    // next tape word to replay
	src  Source // live runners only
	buf  []trace.Instruction
}

// NewRunner returns a live runner over src on a fresh core in mode m.
func NewRunner(cfg Config, m Mode, src Source, warmup, interval int) *Runner {
	r := &Runner{c: NewCoreInMode(cfg, m), interval: interval, src: src, buf: make([]trace.Instruction, interval)}
	r.warmup(warmup)
	return r
}

// Runner returns a runner that replays the tape on a fresh core in mode
// m. A warm tape resumes from its recorded warm state instead of
// executing a warmup, so it requires m to be ModeHighPerf and warmup to
// be the one it was recorded with.
func (t *Tape) Runner(m Mode, warmup, interval int) *Runner {
	tapeReplays.Inc()
	r := &Runner{c: newTimingCore(t.cfg, m), interval: interval, tape: t}
	if s := t.warm; s != nil {
		if m != ModeHighPerf || warmup != s.warmup {
			panic("uarch: a warm tape replays only in high-performance mode after its recorded warmup")
		}
		r.c.restore(s)
		warmup = 0
	}
	r.warmup(warmup)
	return r
}

// warmup executes up to n instructions in interval-sized batches without
// reporting them.
func (r *Runner) warmup(n int) {
	for done := 0; done < n; {
		k := r.step(min(n-done, r.interval))
		if k == 0 {
			break
		}
		done += k
	}
	r.prev = r.c.Events()
}

// step executes up to n further instructions and reports how many ran.
func (r *Runner) step(n int) int {
	if r.src == nil {
		n = min(n, r.tape.len()-r.pos)
		r.c.replay(r.tape, r.pos, r.pos+n)
		r.pos += n
		return n
	}
	n = r.src.Read(r.buf[:n])
	r.c.Execute(r.buf[:n])
	return n
}

// Next executes the next interval and returns its Events delta and its
// length in instructions: the interval size, less for a partial tail
// interval, and 0 once the stream is exhausted.
func (r *Runner) Next() (Events, int) {
	n := r.step(r.interval)
	cur := r.c.Events()
	d := cur.Sub(r.prev)
	r.prev = cur
	return d, n
}

// SetMode switches the core's cluster configuration (see Core.SetMode).
func (r *Runner) SetMode(m Mode) { r.c.SetMode(m) }

// SetMemDerate derates the core's DRAM bandwidth (see Core.SetMemDerate).
func (r *Runner) SetMemDerate(f float64) { r.c.SetMemDerate(f) }
