package surrogate

import (
	"math"

	"clustergate/internal/uarch"
)

// Splice builds the analytical interval estimate: a copy of the recorded
// steady-state base vector for the replayed mode, patched with
//
//   - the mode-switch microcode cost (uarch.SwitchCost — register-transfer
//     µops and transition cycles) when the interval is the first after a
//     switch,
//   - the DRAM-derate miss-latency bound: a derated memory port stretches
//     the minimum fill gap from MemGap to round(MemGap·derate) cycles, so
//     the fully-serialised upper bound adds (gap′−gap) cycles per DRAM
//     line fill (demand L2 misses + prefetch fills), and
//   - the issue-width floor: an interval can never retire faster than the
//     front-end width of the mode allows.
//
// Stall count is re-derived as cycles−busy, mirroring how the cycle model
// reports it. The remaining error — switch-transient µarch state, fill
// overlap under derate — is what the learned residual corrects.
func Splice(rec []float64, mode uarch.Mode, derate float64, sinceSwitch int, cfg uarch.Config) []float64 {
	base := make([]float64, len(rec))
	copy(base, rec)
	cycles := base[idxCycles]

	if sinceSwitch == 0 {
		c, uops := uarch.SwitchCost(cfg, mode)
		base[idxModeSwitches]++
		base[idxRegTransferUops] += float64(uops)
		cycles += float64(c)
	}

	if derate > 1 {
		gap := float64(cfg.MemGap)
		gapPrime := math.Floor(gap*derate + 0.5) // mirror Hierarchy.SetMemDerate rounding
		if extra := (gapPrime - gap) * (base[idxL2Misses] + base[idxPrefetchFills]); extra > 0 {
			cycles += extra
		}
	}

	base[idxCycles] = applyCycleBounds(base, mode, cycles, cfg)
	base[idxStall] = stallFor(base)
	return base
}

// applyCycleBounds clamps a cycle estimate to the analytic floor: the
// issue-width bound (instructions / front-end width of the mode) and the
// recorded busy-cycle count, so spliced vectors always pass the telemetry
// plausibility checks.
func applyCycleBounds(base []float64, mode uarch.Mode, cycles float64, cfg uarch.Config) float64 {
	width := float64(cfg.FetchWidth)
	if mode == uarch.ModeLowPower {
		width = math.Max(1, width/2)
	}
	if floor := math.Ceil(base[idxInstrs] / width); cycles < floor {
		cycles = floor
	}
	if busy := base[idxBusy]; cycles < busy {
		cycles = busy
	}
	return math.Round(cycles)
}

// stallFor re-derives the stall counter the way the cycle model reports
// it: total cycles minus busy cycles, floored at zero.
func stallFor(base []float64) float64 {
	if s := base[idxCycles] - base[idxBusy]; s > 0 {
		return s
	}
	return 0
}

// steadySinceSwitch is the since-switch count of an interval past any
// mode-switch transient, including the warmed-up high-performance state
// every deployment and training run starts in.
const steadySinceSwitch = 1 << 20

// switchClock counts intervals since the last mode switch, the context
// Splice and Features take as sinceSwitch.
type switchClock struct {
	mode  uarch.Mode
	since int
}

// newSwitchClock returns a clock in the steady high-performance state.
func newSwitchClock() switchClock {
	return switchClock{mode: uarch.ModeHighPerf, since: steadySinceSwitch}
}

// next returns the since-switch count of the next interval, run in mode
// m: 0 for the first interval after a switch.
func (c *switchClock) next(m uarch.Mode) int {
	if m != c.mode {
		c.mode, c.since = m, 0
	}
	s := c.since
	if c.since < steadySinceSwitch {
		c.since++
	}
	return s
}
