package uarch

import (
	"runtime"
	"sync"

	"clustergate/internal/trace"
)

// The probe pool decouples the two halves of Execute's struct-of-arrays
// split across goroutines: while a core's timing pass prices chunk k on
// the caller's goroutine, the pool runs the probe pass for chunk k+1.
//
// Why this is exact: the probe pass mutates only cache, predictor, and
// I-side state and credits only front-end Events fields, the timing pass
// only cycle rings, queue clocks and the other Events fields — so
// overlapping them reorders no observable computation. Program order
// within each kind of state is preserved because a core never has more
// than one probe job in flight (Execute receives probeDone for chunk k
// before submitting k+1).
//
// Why a shared pool rather than a goroutine per Execute call: spawning a
// goroutine allocates, and steady-state Execute is pinned to zero
// allocations per op. The pool is created once, lazily, and jobs for
// different cores are independent, so the same few workers serve every
// core in the process (including concurrent cores under the parallel
// sweep runner).

// probeJob asks the pool to run c.probePass(batch, words) and then signal
// c.probeDone. The channel send publishes every word write to the
// receiving goroutine.
type probeJob struct {
	c     *Core
	batch []trace.Instruction
	words []uint64
}

var (
	probePoolOnce sync.Once
	probeJobs     chan probeJob
)

// probePoolReady reports whether pipelined execution is worthwhile and,
// on first use, starts the worker pool. On a single-CPU process the
// pipeline can only interleave, not overlap, so Execute keeps the serial
// schedule there.
func probePoolReady() bool {
	if runtime.GOMAXPROCS(0) < 2 {
		return false
	}
	probePoolOnce.Do(startProbePool)
	return true
}

func startProbePool() {
	workers := min(runtime.GOMAXPROCS(0)-1, 4)
	probeJobs = make(chan probeJob, 4*workers)
	for i := 0; i < workers; i++ {
		go func() {
			for j := range probeJobs {
				j.c.probePass(j.batch, j.words)
				j.c.probeDone <- struct{}{}
			}
		}()
	}
}
