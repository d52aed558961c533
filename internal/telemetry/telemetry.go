// Package telemetry models the paper's on-die telemetry subsystem: 936
// architecture and microarchitecture event counters, snapshot on a regular
// instruction interval and routed to one on-chip convergence point.
//
// The simulator exposes a few dozen physically distinct signals
// (uarch.Events); real telemetry fans these out into hundreds of counters
// that are scaled versions, sums, noisy duplicates, and rarely-firing debug
// counters of one another. This package synthesises that structure
// deterministically, which is what gives the Perona-Freeman counter
// selection algorithm (internal/counters) a realistic redundancy landscape
// to screen: groups of statistically interchangeable counters from which
// one representative should be chosen.
package telemetry

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"clustergate/internal/uarch"
)

// TotalCounters is the size of the synthesised counter space, matching the
// paper's "936 available event counters".
const TotalCounters = 936

// BaseNames lists the physically distinct signals, in extraction order.
// The first twelve are the signals behind the paper's Table 4; the set also
// covers the expert counters of Eyerman et al. used by CHARSTAR.
var BaseNames = []string{
	"uop_cache_misses",      // Table 4 #1
	"l2_silent_evictions",   // Table 4 #2
	"wrong_path_uops",       // Table 4 #3
	"store_queue_occupancy", // Table 4 #4
	"l1d_reads",             // Table 4 #5
	"stall_count",           // Table 4 #6 (also an expert counter)
	"phys_reg_refs",         // Table 4 #7
	"loads_retired",         // Table 4 #8
	"l1d_hits",              // Table 4 #9
	"uop_cache_hits",        // Table 4 #10
	"uops_stalled_on_dep",   // Table 4 #11
	"uops_ready",            // Table 4 #12
	"branch_mispredicts",    // expert
	"icache_misses",         // expert
	"dcache_misses",         // expert (L1D misses)
	"l2_misses",             // expert
	"instructions",          // expert (normalised per cycle = IPC)
	"itlb_misses",           // expert
	"dtlb_misses",           // expert
	"branches",
	"taken_branches",
	"stores_retired",
	"l2_hits",
	"l2_dirty_evictions",
	"l1i_hits",
	"fetch_bubbles",
	"redirect_cycles",
	"busy_cycles",
	"ready_wait_cycles",
	"sq_stall_cycles",
	"issue_cluster0",
	"issue_cluster1",
	"cross_cluster_forwards",
	"fp_ops",
	"mul_ops",
	"div_ops",
	"mode_switches",
	"reg_transfer_uops",
	"prefetch_fills",
	"cycles",
}

// NumBase is the number of physically distinct signals.
var NumBase = len(BaseNames)

// ExtractBase converts an interval's event delta into the base signal
// vector, ordered as BaseNames.
func ExtractBase(ev uarch.Events) []float64 {
	return []float64{
		float64(ev.UopCacheMisses),
		float64(ev.L2SilentEvictions),
		float64(ev.WrongPathUops),
		float64(ev.SQOccupancySum),
		float64(ev.L1DReads),
		float64(ev.StallCycles),
		float64(ev.PhysRegRefs),
		float64(ev.Loads),
		float64(ev.L1DHits),
		float64(ev.UopCacheHits),
		float64(ev.UopsStalledOnDep),
		float64(ev.UopsReady),
		float64(ev.Mispredicts),
		float64(ev.L1IMisses),
		float64(ev.L1DMisses),
		float64(ev.L2Misses),
		float64(ev.Instrs),
		float64(ev.ITLBMisses),
		float64(ev.DTLBMisses),
		float64(ev.Branches),
		float64(ev.TakenBranches),
		float64(ev.Stores),
		float64(ev.L2Hits),
		float64(ev.L2DirtyEvictions),
		float64(ev.L1IHits),
		float64(ev.FetchBubbles),
		float64(ev.RedirectCycles),
		float64(ev.BusyCycles),
		float64(ev.ReadyWaitCycles),
		float64(ev.SQStallCycles),
		float64(ev.IssueC0),
		float64(ev.IssueC1),
		float64(ev.CrossForwards),
		float64(ev.FPOps),
		float64(ev.MulOps),
		float64(ev.DivOps),
		float64(ev.ModeSwitches),
		float64(ev.RegTransferUops),
		float64(ev.PrefetchFills),
		float64(ev.Cycles),
	}
}

// counterKind classifies how a synthesised counter derives from base
// signals.
type counterKind uint8

const (
	kindBase   counterKind = iota // a base signal verbatim
	kindScaled                    // base × constant (unit/prescaler variants)
	kindNoisy                     // base + Gaussian measurement noise
	kindSum                       // weighted sum of two bases
	kindCombo                     // weighted sum of three bases
	kindDebug                     // near-always-zero debug counter
)

type counterSpec struct {
	kind  counterKind
	src   [3]uint16
	coef  [3]float64
	noise float64 // noise std as a fraction of the value
}

// CounterSet is the full synthesised telemetry counter space.
type CounterSet struct {
	Names []string
	specs []counterSpec
}

// NewStandardCounterSet returns the 936-counter space. The set is built
// once per process and every call hands out a fresh copy of it, so each
// caller owns (and may modify) its own Names and specs while the
// name-formatting cost is paid once: every firmware-image decode builds a
// counter set.
func NewStandardCounterSet() *CounterSet {
	t := standardCounterSet()
	return &CounterSet{Names: slices.Clone(t.Names), specs: slices.Clone(t.specs)}
}

// standardCounterSet is the shared template NewStandardCounterSet copies.
// It is never handed out, so no caller can modify it.
var standardCounterSet = sync.OnceValue(buildStandardCounterSet)

// buildStandardCounterSet deterministically builds the 936-counter space.
func buildStandardCounterSet() *CounterSet {
	rng := rand.New(rand.NewSource(0x74656C65)) // "tele"
	cs := &CounterSet{}
	nb := uint16(NumBase)

	add := func(name string, spec counterSpec) {
		cs.Names = append(cs.Names, name)
		cs.specs = append(cs.specs, spec)
	}

	// The physical signals themselves.
	for i, name := range BaseNames {
		add(name, counterSpec{kind: kindBase, src: [3]uint16{uint16(i)}})
	}
	// Scaled variants: different prescalers / units for the same signal.
	scales := []float64{0.25, 0.5, 2, 4}
	for i := range BaseNames {
		for k, s := range scales {
			add(fmt.Sprintf("%s_x%d", BaseNames[i], k),
				counterSpec{kind: kindScaled, src: [3]uint16{uint16(i)}, coef: [3]float64{s}})
		}
	}
	// Noisy duplicates: sampled variants with measurement noise.
	for i := range BaseNames {
		for k := 0; k < 2; k++ {
			add(fmt.Sprintf("%s_smp%d", BaseNames[i], k),
				counterSpec{kind: kindNoisy, src: [3]uint16{uint16(i)}, coef: [3]float64{1}, noise: 0.05 + 0.05*float64(k)})
		}
	}
	// Pairwise sums of related signals (e.g. hits+misses = accesses).
	for k := 0; k < 150; k++ {
		a, b := uint16(rng.Intn(int(nb))), uint16(rng.Intn(int(nb)))
		add(fmt.Sprintf("sum_%03d", k), counterSpec{
			kind: kindSum, src: [3]uint16{a, b},
			coef: [3]float64{0.5 + rng.Float64(), 0.5 + rng.Float64()},
		})
	}
	// Three-way combinations.
	for k := 0; k < 150; k++ {
		a, b, c := uint16(rng.Intn(int(nb))), uint16(rng.Intn(int(nb))), uint16(rng.Intn(int(nb)))
		add(fmt.Sprintf("combo_%03d", k), counterSpec{
			kind: kindCombo, src: [3]uint16{a, b, c},
			coef: [3]float64{rng.Float64(), rng.Float64(), rng.Float64()},
		})
	}
	// Debug counters: read zero almost always (assertion hits, ECC events,
	// microcode traps). These are what the low-activity screen removes.
	for k := 0; len(cs.Names) < TotalCounters; k++ {
		add(fmt.Sprintf("debug_%03d", k), counterSpec{
			kind: kindDebug, src: [3]uint16{uint16(rng.Intn(int(nb)))},
			coef: [3]float64{0.001 + 0.01*rng.Float64()},
		})
	}
	if len(cs.Names) != TotalCounters {
		panic(fmt.Sprintf("telemetry: built %d counters, want %d", len(cs.Names), TotalCounters))
	}
	return cs
}

// Len returns the number of counters in the set.
func (cs *CounterSet) Len() int { return len(cs.Names) }

// Index returns the position of the named counter, or -1.
func (cs *CounterSet) Index(name string) int {
	for i, n := range cs.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Snapshot expands an interval's base signal vector into the full counter
// space. When normalize is true every counter is divided by the interval's
// cycle count, the normalisation the paper found improves model accuracy.
// rng drives measurement noise and debug-counter firing; pass a
// deterministically seeded source for reproducible datasets.
func (cs *CounterSet) Snapshot(base []float64, normalize bool, rng *rand.Rand) []float64 {
	if len(base) != NumBase {
		panic(fmt.Sprintf("telemetry: base vector has %d signals, want %d", len(base), NumBase))
	}
	out := make([]float64, len(cs.specs))
	for i := range cs.specs {
		sp := &cs.specs[i]
		var v float64
		switch sp.kind {
		case kindBase:
			v = base[sp.src[0]]
		case kindScaled:
			v = base[sp.src[0]] * sp.coef[0]
		case kindNoisy:
			v = base[sp.src[0]]
			if v != 0 {
				v += rng.NormFloat64() * sp.noise * v
			}
		case kindSum:
			v = sp.coef[0]*base[sp.src[0]] + sp.coef[1]*base[sp.src[1]]
		case kindCombo:
			v = sp.coef[0]*base[sp.src[0]] + sp.coef[1]*base[sp.src[1]] + sp.coef[2]*base[sp.src[2]]
		case kindDebug:
			if rng.Float64() < 0.02 {
				v = sp.coef[0] * base[sp.src[0]]
			}
		}
		out[i] = v
	}
	if normalize {
		cyc := base[NumBase-1] // "cycles"
		if cyc > 0 {
			for i := range out {
				out[i] /= cyc
			}
		}
	}
	return out
}

// Aggregate sums successive interval base vectors into one coarser vector,
// matching the paper's "sum over successive intervals and re-normalize"
// procedure for coarser prediction granularities.
func Aggregate(bases [][]float64) []float64 {
	if len(bases) == 0 {
		return nil
	}
	out := make([]float64, len(bases[0]))
	for _, b := range bases {
		for i, v := range b {
			out[i] += v
		}
	}
	return out
}

// Table4Names is the 12-counter set the paper's PF selection identified
// (Table 4), expressed in this package's base-counter names. Experiments
// use the set actually selected on synthesized telemetry; this list anchors
// comparisons against the paper.
func Table4Names() []string {
	return append([]string(nil), BaseNames[0:12]...)
}

// ExpertNames is the 8-counter expert set of Eyerman et al. used by the
// CHARSTAR baseline (Section 7): branch mispredictions, I-cache misses,
// D-cache misses, L2 misses, IPC, I-TLB misses, D-TLB misses, stall count.
func ExpertNames() []string {
	return []string{
		"branch_mispredicts", "icache_misses", "dcache_misses", "l2_misses",
		"instructions", "itlb_misses", "dtlb_misses", "stall_count",
	}
}

// Describe returns a human-readable derivation for counter i: which base
// signals a derived counter mixes and how.
func (cs *CounterSet) Describe(i int) string {
	if i < 0 || i >= len(cs.specs) {
		return "unknown"
	}
	sp := &cs.specs[i]
	name := func(j uint16) string { return BaseNames[j] }
	switch sp.kind {
	case kindBase:
		return name(sp.src[0])
	case kindScaled:
		return fmt.Sprintf("%.2g×%s", sp.coef[0], name(sp.src[0]))
	case kindNoisy:
		return fmt.Sprintf("%s + %.0f%% noise", name(sp.src[0]), 100*sp.noise)
	case kindSum:
		return fmt.Sprintf("%.2g×%s + %.2g×%s", sp.coef[0], name(sp.src[0]), sp.coef[1], name(sp.src[1]))
	case kindCombo:
		return fmt.Sprintf("%.2g×%s + %.2g×%s + %.2g×%s",
			sp.coef[0], name(sp.src[0]), sp.coef[1], name(sp.src[1]), sp.coef[2], name(sp.src[2]))
	case kindDebug:
		return fmt.Sprintf("debug (rare spikes of %s)", name(sp.src[0]))
	}
	return "unknown"
}
