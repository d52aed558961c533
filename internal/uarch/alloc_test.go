package uarch

import (
	"testing"

	"clustergate/internal/trace"
)

// TestExecuteZeroAllocs pins steady-state Execute to zero heap allocations
// per call: the scratch buffer grows once on the first call and is reused
// forever after, and nothing in the probe or timing pass may allocate. A
// regression here silently re-introduces per-batch garbage in the
// innermost loop of every experiment.
func TestExecuteZeroAllocs(t *testing.T) {
	app := trace.NewApplication(2, "allocs", 7)
	s := trace.NewStream(&trace.Trace{App: app, Seed: 3, NumInstrs: 3 * execChunk})
	batch := make([]trace.Instruction, 3*execChunk)
	n := 0
	for n < len(batch) {
		k := s.Read(batch[n:])
		if k == 0 {
			break
		}
		n += k
	}
	batch = batch[:n]

	core := NewCore(DefaultConfig())
	core.Execute(batch) // warm-up: grows scratch

	if avg := testing.AllocsPerRun(50, func() {
		core.Execute(batch)
	}); avg != 0 {
		t.Fatalf("steady-state Execute allocates %.1f times per call, want 0", avg)
	}
}
