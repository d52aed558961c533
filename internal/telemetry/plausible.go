package telemetry

// MaxPlausibleIPC bounds instructions retired per cycle in a plausible
// interval: twice the dual-cluster machine's total issue width (8), so
// even perfectly fused execution stays far below it. Readings above it
// only occur when counters glitch.
const MaxPlausibleIPC = 16

// ImplausibleBase checks one interval's base-signal vector against the
// physical invariants any honest telemetry snapshot satisfies, and
// returns a short reason when the vector cannot have come from real
// execution — the signal the SLA guardrail watchdog in internal/core uses
// to distrust the adaptation model's inputs. prev is the previous
// interval's observed vector (nil for the first interval).
//
// The checks are deliberately loose: clean telemetry from the simulator
// (and from any sane hardware) never trips them, while the fault classes
// of internal/fault do — a dropped snapshot reads all-zero, frozen
// counters repeat the previous interval verbatim, and glitched counters
// break cross-signal arithmetic (more busy cycles than cycles, impossible
// IPC). Returns "" for plausible vectors. It is ImplausibleVector's
// checks, then Frozen's.
func ImplausibleBase(base, prev []float64) string {
	if reason := ImplausibleVector(base); reason != "" {
		return reason
	}
	if Frozen(base, prev) {
		return "frozen"
	}
	return ""
}

// ImplausibleVector runs the checks of ImplausibleBase that read base
// alone — arity, negative counts, all-zero, zero cycles, IPC and busy
// cycles — and returns the first one's reason, or "". A vector that
// passes them passes ImplausibleBase unless it repeats its predecessor,
// so a store of read-only vectors can check each one once.
func ImplausibleVector(base []float64) string {
	if len(base) != NumBase {
		return "wrong-arity"
	}
	allZero := true
	for _, v := range base {
		if v < 0 {
			return "negative-count"
		}
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		return "all-zero"
	}
	cycles := base[NumBase-1] // "cycles" is the last base signal
	instrs := base[16]        // "instructions"
	busy := base[27]          // "busy_cycles"
	if cycles == 0 {
		return "zero-cycles"
	}
	if instrs > MaxPlausibleIPC*cycles {
		return "impossible-ipc"
	}
	if busy > cycles {
		return "busy-exceeds-cycles"
	}
	return ""
}

// Frozen reports whether base repeats prev verbatim, the freeze check of
// ImplausibleBase and the one that needs the previous interval. A nil prev
// or one of another length is never frozen.
func Frozen(base, prev []float64) bool {
	if prev == nil || len(prev) != len(base) {
		return false
	}
	for i := range base {
		if base[i] != prev[i] {
			return false
		}
	}
	return true
}
