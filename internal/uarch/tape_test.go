package uarch

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
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
