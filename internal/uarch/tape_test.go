package uarch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"clustergate/internal/trace"
)

// sliceSource serves a fixed instruction slice as a Source.
type sliceSource struct{ ins []trace.Instruction }

func (s *sliceSource) Read(buf []trace.Instruction) int {
	n := copy(buf, s.ins)
	s.ins = s.ins[n:]
	return n
}

func (s *sliceSource) Remaining() int { return len(s.ins) }

// readAll drains a source.
func readAll(src Source) []trace.Instruction {
	var out []trace.Instruction
	buf := make([]trace.Instruction, 4096)
	for {
		k := src.Read(buf)
		if k == 0 {
			return out
		}
		out = append(out, buf[:k]...)
	}
}

// hostileDep draws a dependency distance from the whole int32 range,
// weighted towards the boundaries the timing pass distinguishes: absent,
// negative, the steering-follow range, the ring size and its multiples.
func hostileDep(rng *rand.Rand) int32 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return int32(1 + rng.Intn(3))
	case 2:
		return int32(rng.Intn(600))
	case 3:
		return int32(depWindow * (1 + rng.Intn(3)))
	case 4:
		return int32(depWindow*rng.Intn(4) + 1 + rng.Intn(3))
	case 5:
		return -int32(rng.Intn(1 << 20))
	case 6:
		return math.MaxInt32 - int32(rng.Intn(4))
	default:
		return int32(rng.Uint32())
	}
}

// hostileTraceFile encodes n instructions in the binary trace format with
// arbitrary op bytes, taken bits on any op, and hostile dependency
// distances, so the decoder produces streams the generator never would.
func hostileTraceFile(rng *rand.Rand, n int) []byte {
	b := []byte("CGTR\x01")
	b = binary.AppendUvarint(b, uint64(n))
	b = binary.AppendUvarint(b, 7)
	b = append(b, "hostile"...)
	for i := 0; i < n; i++ {
		flags := byte(rng.Intn(128))
		if rng.Intn(3) == 0 {
			flags = byte(rng.Intn(int(trace.OpBranch) + 1)) // mostly real ops
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(int64(hostileDep(rng))))
		b = binary.AppendUvarint(b, uint64(int64(hostileDep(rng))))
		// Mostly sequential PCs with jumps, so fetch blocks repeat.
		dpc := int64(4)
		if rng.Intn(16) == 0 {
			dpc = rng.Int63n(1<<16) - 1<<15
		}
		b = binary.AppendVarint(b, dpc)
		if op := trace.OpClass(flags & 0x7F); op == trace.OpLoad || op == trace.OpStore {
			b = binary.AppendVarint(b, rng.Int63n(1<<14)-1<<13)
		}
	}
	return b
}

// decodedStream decodes a binary trace file completely.
func decodedStream(t testing.TB, file []byte) []trace.Instruction {
	t.Helper()
	r, err := trace.NewTraceReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]trace.Instruction, r.Total)
	n, err := r.Read(out)
	if err != nil || n != r.Total {
		t.Fatalf("decoded %d of %d instructions: %v", n, r.Total, err)
	}
	return out
}

// differentialStreams are the instruction streams the tape is checked on:
// generated traces from random archetypes and from a DRAM-bound phase of
// independent misses (which keeps the MSHR and channel clocks busy across
// the warmup boundary), a generated trace round-tripped through the binary
// format, hostile decoded streams, and a stream with more distinct words
// than the tape's dictionary can code.
func differentialStreams(t *testing.T, rng *rand.Rand) map[string][]trace.Instruction {
	streams := map[string][]trace.Instruction{}
	memBound := &trace.Application{
		Name: "tape-dram",
		Phases: []trace.Phase{{Params: trace.PhaseParams{
			DepDist: 60, LoadFrac: 0.34, StoreFrac: 0.1, BranchFrac: 0.08,
			DataFootprint: 256 << 20, CodeFootprint: 16 << 10,
			StrideFrac: 0.1, BranchEntropy: 0.1,
		}, Length: 1 << 30}},
		Transition: [][]float64{{1}},
		Seed:       1,
	}
	streams["dram-bound"] = readAll(trace.NewStream(&trace.Trace{App: memBound, Seed: 2, NumInstrs: 40_000}))
	for i := 0; i < 4; i++ {
		app := trace.NewApplication(rng.Intn(len(trace.Archetypes())), "tape", rng.Int63())
		tr := &trace.Trace{App: app, Seed: rng.Int63(), NumInstrs: 30_000 + rng.Intn(30_000)}
		streams["generated-"+string(rune('a'+i))] = readAll(trace.NewStream(tr))
		if i == 0 {
			var file bytes.Buffer
			if err := trace.WriteTrace(&file, tr); err != nil {
				t.Fatal(err)
			}
			streams["round-trip"] = decodedStream(t, file.Bytes())
		}
	}
	for i := 0; i < 3; i++ {
		streams["hostile-"+string(rune('a'+i))] = decodedStream(t, hostileTraceFile(rng, 20_000+rng.Intn(20_000)))
	}
	// Every instruction has its own pair of dependency distances, so each
	// word is distinct and the tape outgrows its 2-byte codes.
	wide := make([]trace.Instruction, 90_000)
	for i := range wide {
		wide[i] = trace.Instruction{Op: trace.OpALU, PC: 4 * uint64(i), Dep1: int32(1 + i%1021), Dep2: int32(1 + i/1021)}
	}
	streams["wide"] = wide
	return streams
}

// TestTapeReplayMatchesExecute is the tape's differential test: every
// stream is executed live and replayed from its tape under the same random
// mode/derate schedule and random batch boundaries (from single
// instructions to multi-chunk batches), and the two cores' Events must
// agree field for field at every boundary. Full tapes start both cores
// from scratch in a random mode; warm tapes replay from the recorded
// warm state while the live core executes the same warmup.
func TestTapeReplayMatchesExecute(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := DefaultConfig()
	derates := []float64{1, 1, 1, 2, 4.5, 6}
	streams := differentialStreams(t, rng)
	var names []string
	for name := range streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ins := streams[name]
		for _, warmup := range []int{0, 7_777} {
			mode := ModeHighPerf
			if warmup == 0 && rng.Intn(2) == 0 {
				mode = ModeLowPower
			}
			tape := RecordTape(cfg, &sliceSource{ins}, warmup)
			if n := tape.len() + warmup; n != len(ins) {
				t.Fatalf("%s: tape holds %d instructions, stream has %d", name, n, len(ins))
			}
			if b := tape.size(); b > 8*len(ins) {
				t.Errorf("%s warmup %d: tape takes %d B for %d instructions, over 8 B each", name, warmup, b, len(ins))
			}
			if raw := tape.words != nil; raw != (name == "wide") {
				t.Errorf("%s warmup %d: raw tape = %v", name, warmup, raw)
			}
			live := NewCoreInMode(cfg, mode)
			rest := ins
			for done := 0; done < warmup; {
				k := min(warmup-done, 1+rng.Intn(3*execChunk))
				live.Execute(rest[:k])
				rest = rest[k:]
				done += k
			}
			rep := newTimingCore(cfg, mode)
			pos := 0
			if tape.warm != nil {
				rep.restore(tape.warm)
			}
			if live.Events() != rep.Events() {
				t.Fatalf("%s warmup %d: events diverge after warmup\nlive:   %+v\nreplay: %+v", name, warmup, live.Events(), rep.Events())
			}
			for batch := 0; len(rest) > 0; batch++ {
				if rng.Intn(4) == 0 {
					m := Mode(rng.Intn(2))
					live.SetMode(m)
					rep.SetMode(m)
				}
				if rng.Intn(3) == 0 {
					f := derates[rng.Intn(len(derates))]
					live.SetMemDerate(f)
					rep.SetMemDerate(f)
				}
				var k int
				switch rng.Intn(4) {
				case 0:
					k = 1 + rng.Intn(16)
				case 1:
					k = 1 + rng.Intn(execChunk)
				default:
					k = 1 + rng.Intn(5*execChunk)
				}
				k = min(k, len(rest))
				live.Execute(rest[:k])
				rep.replay(tape, pos, pos+k)
				rest, pos = rest[k:], pos+k
				if a, b := live.Events(), rep.Events(); a != b {
					t.Fatalf("%s warmup %d batch %d: events diverge\nlive:   %+v\nreplay: %+v", name, warmup, batch, a, b)
				}
			}
		}
	}
}

// TestTapeRunnerMatchesLiveRunner checks the interval runner end to end:
// a tape runner and a live runner over the same trace report identical
// interval deltas under a mode and derate schedule, from a full tape in
// low-power mode and from a warm tape.
func TestTapeRunnerMatchesLiveRunner(t *testing.T) {
	cfg := DefaultConfig()
	app := trace.NewApplication(5, "runner", 3)
	tr := &trace.Trace{App: app, Seed: 8, NumInstrs: 123_456}
	const warmup, interval = 20_000, 10_000
	for _, tc := range []struct {
		name       string
		mode       Mode
		tapeWarmup int
	}{{"full-low-power", ModeLowPower, 0}, {"warm-high-perf", ModeHighPerf, warmup}} {
		live := NewRunner(cfg, tc.mode, trace.NewStream(tr), warmup, interval)
		rep := RecordTape(cfg, trace.NewStream(tr), tc.tapeWarmup).Runner(tc.mode, warmup, interval)
		mode := tc.mode
		for i := 0; ; i++ {
			if i%3 == 2 {
				mode = 1 - mode
				live.SetMode(mode)
				rep.SetMode(mode)
			}
			f := float64(1 + i%4)
			live.SetMemDerate(f)
			rep.SetMemDerate(f)
			a, n := live.Next()
			b, m := rep.Next()
			if n != m || a != b {
				t.Fatalf("%s interval %d: live %d instrs %+v\nreplay %d instrs %+v", tc.name, i, n, a, m, b)
			}
			if n == 0 {
				break
			}
		}
	}
}

// maxCheckpointBytes bounds a checkpoint of the test's runners: a small
// fraction of the ~12 KB timing state plus the live port slots it encodes.
const maxCheckpointBytes = 2_048

// TestCheckpointResumeMatchesRunner checks runner checkpoints, the
// canonical shift-free encoding of a runner's state between intervals:
//
//   - a runner resumed from the checkpoint taken after any interval
//     reports, under the same mode and derate schedule, exactly the
//     intervals the checkpointed runner went on to report, whatever mode
//     and derate were in effect when it was taken, and the checkpoint
//     holds at most maxCheckpointBytes;
//   - two runners whose schedules converge (a DRAM-derate burst that has
//     ended, a low-power interval followed by high-performance ones)
//     reach equal encodings, and either one's checkpoint resumes into the
//     other's future deltas;
//   - perturbing any value the future reads changes the bytes, and
//     perturbing what it cannot read does not.
func TestCheckpointResumeMatchesRunner(t *testing.T) {
	cfg := DefaultConfig()
	tr := &trace.Trace{App: trace.NewApplication(5, "checkpoint", 4), Seed: 2, NumInstrs: 95_000}
	const warmup, interval = 20_000, 5_000
	tape := RecordTape(cfg, trace.NewStream(tr), warmup)
	type sched func(i int) (Mode, float64)
	run := func(r *Runner, from int, schedule sched) (deltas []Events, cps []Checkpoint) {
		for i := from; ; i++ {
			m, f := schedule(i)
			r.SetMode(m)
			r.SetMemDerate(f)
			d, n := r.Next()
			if n == 0 {
				return deltas, cps
			}
			deltas = append(deltas, d)
			cps = append(cps, Checkpoint(r.AppendCheckpoint(nil)))
		}
	}

	t.Run("resume", func(t *testing.T) {
		schedule := func(i int) (Mode, float64) { return Mode(i / 2 % 2), float64(1 + i%3) }
		want, cps := run(tape.Runner(ModeHighPerf, warmup, interval), 0, schedule)
		if len(want) < 10 {
			t.Fatalf("%d intervals, want at least 10", len(want))
		}
		for i, cp := range cps {
			got, again := run(tape.Resume(cp, interval), i+1, schedule)
			if !slices.Equal(got, want[i+1:]) || !slices.Equal(again, cps[i+1:]) {
				t.Fatalf("resumed after interval %d: deltas or checkpoints differ from the uninterrupted runner", i)
			}
			if len(cp) > maxCheckpointBytes {
				t.Errorf("checkpoint after interval %d holds %d bytes, more than %d", i, len(cp), maxCheckpointBytes)
			}
		}
	})

	t.Run("converge", func(t *testing.T) {
		nominal := func(int) (Mode, float64) { return ModeHighPerf, 1 }
		want, wantCPs := run(tape.Runner(ModeHighPerf, warmup, interval), 0, nominal)
		// check runs a schedule that leaves the nominal one in intervals
		// [first, last] and reports whether its encoding meets the
		// nominal runner's within two intervals after last; if so, the two
		// must stay together, and each checkpoint must resume into the
		// other runner's deltas.
		check := func(name string, first, last int, off func() (Mode, float64)) bool {
			schedule := func(i int) (Mode, float64) {
				if first <= i && i <= last {
					return off()
				}
				return nominal(i)
			}
			got, cps := run(tape.Runner(ModeHighPerf, warmup, interval), 0, schedule)
			if got[last] == want[last] {
				t.Fatalf("%s: interval %d is the same as on the nominal schedule; the schedule changes nothing", name, last)
			}
			d := last + 1
			for d <= last+2 && cps[d] != wantCPs[d] {
				d++
			}
			if d > last+2 {
				return false
			}
			for i := d + 1; i < len(cps); i++ {
				if cps[i] != wantCPs[i] || got[i] != want[i] {
					t.Fatalf("%s: after meeting at interval %d the runners part again at %d", name, d, i)
				}
			}
			if a, _ := run(tape.Resume(cps[d], interval), d+1, nominal); !slices.Equal(a, want[d+1:]) {
				t.Fatalf("%s: its checkpoint after interval %d does not resume into the nominal runner's deltas", name, d)
			}
			if b, _ := run(tape.Resume(wantCPs[d], interval), d+1, schedule); !slices.Equal(b, got[d+1:]) {
				t.Fatalf("%s: the nominal checkpoint after interval %d does not resume into its deltas", name, d)
			}
			return true
		}
		if !check("derate-burst", 2, 3, func() (Mode, float64) { return ModeHighPerf, 6 }) {
			t.Error("a two-interval DRAM-derate burst's encoding does not meet the nominal one within two intervals of its end")
		}
		// A low-power interval leaves the steering toggle where it was, so
		// the two histories converge only if the nominal runner toggled it
		// an even number of times meanwhile: some start must converge.
		met := false
		for p := 1; p < 8 && !met; p++ {
			met = check(fmt.Sprintf("low-power@%d", p), p, p, func() (Mode, float64) { return ModeLowPower, 1 })
		}
		if !met {
			t.Error("no single low-power interval's encoding meets the nominal one within two intervals")
		}
	})

	t.Run("perturb", func(t *testing.T) {
		_, cps := run(tape.Runner(ModeHighPerf, warmup, interval), 0, func(i int) (Mode, float64) { return Mode(i % 2), 1 })
		cp := cps[len(cps)/2]
		for _, tc := range []struct {
			name    string
			reads   bool // whether the future reads the perturbed value
			perturb func(c *Core) bool
		}{
			{"recent-completion", true, func(c *Core) bool {
				for i, v := range c.comp {
					if v+clockFloor >= c.fc {
						c.comp[i]++
						return true
					}
				}
				return false
			}},
			{"live-slot-counts", true, func(c *Core) bool {
				for i := c.fc; i <= c.retireMax; i++ {
					if v := c.slots[i&(slotWindow-1)]; v != slotVirgin && v>>slotEpochShift == i/slotWindow {
						c.slots[i&(slotWindow-1)] = v + 1<<slotStoresShift
						return true
					}
				}
				return false
			}},
			{"retire-max", true, func(c *Core) bool { c.retireMax++; return true }},
			{"fetched-in-fc", true, func(c *Core) bool { c.fetchedInFC++; return true }},
			{"queue-counter-below-depth", true, func(c *Core) bool {
				c.lqCount[1] = c.cc.lq - 2
				return true
			}},
			{"cluster-ring", true, func(c *Core) bool { c.cluster[77] ^= 1; return true }},
			{"old-completion", false, func(c *Core) bool {
				for i, v := range c.comp {
					if v+clockFloor <= c.fc {
						c.comp[i] = v - 100
						return true
					}
				}
				return false
			}},
			{"queue-counter-above-depth", false, func(c *Core) bool {
				// Rotate the ring with the counter: only the offsets
				// behind the counter are read.
				ring := c.sqDrain[0]
				for k := range uint64(sqRingLen) {
					c.sqDrain[0][(c.sqCount[0]+5+k)&(sqRingLen-1)] = ring[(c.sqCount[0]+k)&(sqRingLen-1)]
				}
				c.sqCount[0] += 5
				return true
			}},
			{"dram-derate", false, func(c *Core) bool { c.SetMemDerate(4); return true }},
			{"events", false, func(c *Core) bool { c.ev.BusyCycles += 9; return true }},
		} {
			r := tape.Resume(cp, interval)
			if !tc.perturb(r.c) {
				t.Fatalf("%s: the checkpoint's state has no value to perturb", tc.name)
			}
			if changed := Checkpoint(r.AppendCheckpoint(nil)) != cp; changed != tc.reads {
				t.Errorf("%s: perturbing it changed the encoding %v, want %v", tc.name, changed, tc.reads)
			}
		}
		// The counter below its depth: two such counters encode apart.
		r := tape.Resume(cp, interval)
		r.c.lqCount[1] = r.c.cc.lq - 2
		below := Checkpoint(r.AppendCheckpoint(nil))
		r.c.lqCount[1]++
		if Checkpoint(r.AppendCheckpoint(nil)) == below {
			t.Error("load-queue counters one apart below the depth encode alike")
		}
	})
}

// fullScanLive is the snapshot's live-slot selection over the whole ring,
// the reference for its range scan.
func fullScanLive(c *Core) (idx []uint32, val []uint64) {
	for i, v := range c.slots {
		if v != slotVirgin && (v>>slotEpochShift)*slotWindow+uint64(i) >= c.fc {
			idx = append(idx, uint32(i))
			val = append(val, v)
		}
	}
	return idx, val
}

// TestSnapshotRangeScanMatchesFullScan holds the snapshot's range scan to
// a scan of the whole ring after every interval of a mode and DRAM-derate
// schedule, on a live runner and a tape runner, and checks the invariant
// the range rests on: no stamped slot lies past retireMax.
func TestSnapshotRangeScanMatchesFullScan(t *testing.T) {
	cfg := DefaultConfig()
	tr := &trace.Trace{App: trace.NewApplication(5, "snapshot", 6), Seed: 4, NumInstrs: 150_000}
	const warmup, interval = 20_000, 5_000
	runners := []*Runner{
		NewRunner(cfg, ModeHighPerf, trace.NewStream(tr), warmup, interval),
		RecordTape(cfg, trace.NewStream(tr), warmup).Runner(ModeHighPerf, warmup, interval),
	}
	derates := []float64{1, 4, 1, 2.5, 6}
	for k, r := range runners {
		intervals, live := 0, 0
		for i := 0; ; i++ {
			r.SetMode(Mode(i / 3 % 2))
			r.SetMemDerate(derates[i%len(derates)])
			if _, n := r.Next(); n == 0 {
				break
			}
			c := r.c
			for j, v := range c.slots {
				if cyc := (v>>slotEpochShift)*slotWindow + uint64(j); v != slotVirgin && cyc > c.retireMax {
					t.Fatalf("runner %d interval %d: slot %d stamped at cycle %d, past retireMax %d", k, i, j, cyc, c.retireMax)
				}
			}
			s := c.snapshot()
			idx, val := fullScanLive(c)
			if !slices.Equal(s.slotIdx, idx) || !slices.Equal(s.slotVal, val) {
				t.Fatalf("runner %d interval %d (fc %d, retireMax %d): range scan keeps %d slots, full scan %d",
					k, i, c.fc, c.retireMax, len(s.slotIdx), len(idx))
			}
			intervals++
			live += len(idx)
		}
		if intervals < 20 || live == 0 {
			t.Fatalf("runner %d: %d intervals, %d live slots: the schedule exercises nothing", k, intervals, live)
		}
	}
}

// TestSnapshotRangeScanCases covers the range scan's shapes on synthetic
// rings: a span inside the ring, one that wraps its end, spans one short
// of and exactly the whole ring, a one-cycle span and an empty one. Each
// ring holds stamps up to retireMax, older ones from earlier epochs
// included, written in cycle order as the timing pass writes them.
func TestSnapshotRangeScanCases(t *testing.T) {
	const w = slotWindow
	base := uint64(5 * w)
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name          string
		fc, retireMax uint64
	}{
		{"inside", base + 100, base + 1_100},
		{"wraps", base + w - 300, base + w + 700},
		{"one-short", base + 40, base + 40 + w - 2},
		{"whole-ring", base + 40, base + 40 + w - 1},
		{"past-ring", base + 40, base + 3*w},
		{"one-cycle", base + 77, base + 77},
		{"empty", base + 900, base + 800},
	} {
		c := newTimingCore(DefaultConfig(), ModeHighPerf)
		c.fc, c.retireMax = tc.fc, tc.retireMax
		for cyc := tc.fc - 2*w; cyc <= tc.retireMax; cyc += uint64(1 + rng.Intn(40)) {
			c.slots[cyc&(w-1)] = cyc/w<<slotEpochShift | uint64(1+rng.Intn(4))
		}
		s := c.snapshot()
		idx, val := fullScanLive(c)
		if !slices.Equal(s.slotIdx, idx) || !slices.Equal(s.slotVal, val) {
			t.Errorf("%s: range scan keeps %d slots, full scan %d", tc.name, len(s.slotIdx), len(idx))
		}
	}
}

// TestWarmTapeRejectsOtherWarmups pins the warm tape's contract: it cannot
// stand in for a different warmup or mode.
func TestWarmTapeRejectsOtherWarmups(t *testing.T) {
	app := trace.NewApplication(1, "warm", 2)
	tape := RecordTape(DefaultConfig(), trace.NewStream(&trace.Trace{App: app, Seed: 1, NumInstrs: 30_000}), 10_000)
	for _, tc := range []struct {
		mode   Mode
		warmup int
	}{{ModeHighPerf, 5_000}, {ModeLowPower, 10_000}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Runner(%v, %d) on a tape warmed for 10000 instructions did not panic", tc.mode, tc.warmup)
				}
			}()
			tape.Runner(tc.mode, tc.warmup, 1_000)
		}()
	}
}

// TestReplayZeroAllocs pins steady-state tape replay to zero heap
// allocations per interval, like Execute.
func TestReplayZeroAllocs(t *testing.T) {
	app := trace.NewApplication(2, "allocs", 7)
	const interval = 3 * execChunk
	tape := RecordTape(DefaultConfig(), trace.NewStream(&trace.Trace{App: app, Seed: 3, NumInstrs: 60 * interval}), 0)
	r := tape.Runner(ModeHighPerf, 0, interval)
	r.Next()
	if avg := testing.AllocsPerRun(50, func() { r.Next() }); avg != 0 {
		t.Fatalf("steady-state replay allocates %.1f times per interval, want 0", avg)
	}
}
