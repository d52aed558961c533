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

	"clustergate/internal/obs"
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

	// projs memoises Project: one immutable projection per column list,
	// keyed by the list's bytes (projKey).
	projMu sync.RWMutex
	projs  map[string]*Projection
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
// space: the all-columns projection (see Project). When normalize is true
// every counter is divided by the interval's cycle count, the
// normalisation the paper found improves model accuracy. rng drives
// measurement noise and debug-counter firing; pass a deterministically
// seeded source for reproducible datasets.
func (cs *CounterSet) Snapshot(base []float64, normalize bool, rng *rand.Rand) []float64 {
	return cs.Project(nil).Snapshot(base, normalize, rng)
}

// Projection snapshots a column subset of a CounterSet, computing only the
// counters it selects — the firmware reads the counters its model uses,
// not all 936. CounterSet.Project builds one per column list and hands it
// to every batch of snapshots (a deployment, a dataset) over that list: it
// is immutable and safe for concurrent use.
//
// A projection reproduces the full expansion bit for bit. The expansion
// reads the noise stream in set order — one NormFloat64 per noisy counter
// whose base signal is nonzero and one Float64 per debug counter — so a
// projection that selects any noisy or debug counter makes every one of
// those draws and keeps the selected values, leaving rng where the full
// expansion would. A projection that selects none draws nothing.
type Projection struct {
	// steps are the counters a snapshot computes, in set order: the
	// selected ones and, when any of them reads the noise stream, every
	// counter that does.
	steps []projStep
	// dups copies repeated columns: out[d[0]] = out[d[1]].
	dups  [][2]int
	width int
	draws bool
	// reads are the base signals the steps and the normalisation read, in
	// ascending order: every other signal may hold anything.
	reads []int
}

// projStep computes one counter into output position out, or only
// advances the noise stream when out is -1.
type projStep struct {
	spec counterSpec
	out  int
}

// Snapshot observability: snapshots taken, and those that drew the noise
// stream. Callers add a batch's count once (Projection.Count), never per
// snapshot.
var (
	snapshotsTaken = obs.NewCounter("telemetry.snapshots")
	snapshotsNoisy = obs.NewCounter("telemetry.snapshots.noisy")
)

// Project returns the projection onto cols: output j is counter cols[j].
// Columns may repeat and come in any order; nil selects every counter in
// set order. A column outside the set panics. The set builds each column
// list's projection once and hands the same one to every later call with
// an equal list, so a deployment's projection is a lookup; it keeps a copy
// of the list, never cols itself.
func (cs *CounterSet) Project(cols []int) *Projection {
	if cols == nil {
		cols = make([]int, len(cs.specs))
		for i := range cols {
			cols[i] = i
		}
	}
	for _, c := range cols {
		if c < 0 || c >= len(cs.specs) {
			panic(fmt.Sprintf("telemetry: column %d outside the %d-counter set", c, len(cs.specs)))
		}
	}
	var buf [64]byte
	key := projKey(buf[:0], cols)
	cs.projMu.RLock()
	p := cs.projs[string(key)]
	cs.projMu.RUnlock()
	if p != nil {
		return p
	}
	cs.projMu.Lock()
	defer cs.projMu.Unlock()
	if p = cs.projs[string(key)]; p == nil {
		if cs.projs == nil {
			cs.projs = map[string]*Projection{}
		}
		p = cs.project(cols)
		cs.projs[string(key)] = p
	}
	return p
}

// projKey appends cols, each column in the set's 16-bit source index
// range, to dst as two bytes a column: equal lists give equal keys.
func projKey(dst []byte, cols []int) []byte {
	for _, c := range cols {
		dst = append(dst, byte(c), byte(c>>8))
	}
	return dst
}

// project builds the projection onto cols, which Project has checked.
func (cs *CounterSet) project(cols []int) *Projection {
	// Output positions ordered by column, so one pass in set order finds
	// every output of each selected counter.
	order := make([]int, len(cols))
	for j := range cols {
		order[j] = j
	}
	slices.SortStableFunc(order, func(a, b int) int { return cols[a] - cols[b] })

	p := &Projection{steps: make([]projStep, 0, len(cols)), width: len(cols)}
	for _, c := range cols {
		if cs.specs[c].drawsNoise() {
			p.draws = true
			break
		}
	}
	read := make([]bool, NumBase)
	read[NumBase-1] = true // "cycles", the normalisation's divisor
	next := 0
	for i := range cs.specs {
		out := -1
		for ; next < len(order) && cols[order[next]] == i; next++ {
			if out < 0 {
				out = order[next]
			} else {
				p.dups = append(p.dups, [2]int{order[next], out})
			}
		}
		if out >= 0 || (p.draws && cs.specs[i].drawsNoise()) {
			p.steps = append(p.steps, projStep{spec: cs.specs[i], out: out})
			for _, b := range cs.specs[i].reads(out >= 0) {
				read[b] = true
			}
		}
		if next == len(order) && !p.draws {
			break
		}
	}
	for b, r := range read {
		if r {
			p.reads = append(p.reads, b)
		}
	}
	return p
}

// DrawsNoise reports whether the projection reads the noise stream; when
// it does not, Snapshot accepts a nil rng.
func (p *Projection) DrawsNoise() bool { return p.draws }

// Count adds n snapshots taken through p to the telemetry.snapshots
// counter, and to telemetry.snapshots.noisy when p draws the noise
// stream.
func (p *Projection) Count(n int) {
	snapshotsTaken.Add(int64(n))
	if p.draws {
		snapshotsNoisy.Add(int64(n))
	}
}

// Snapshot returns the selected counters of base's full expansion (see
// CounterSet.Snapshot), in column order, in a new vector.
func (p *Projection) Snapshot(base []float64, normalize bool, rng *rand.Rand) []float64 {
	return p.SnapshotInto(nil, base, normalize, rng)
}

// SnapshotInto is Snapshot writing into dst: it returns dst resliced to the
// projection's width, or a new vector when dst is too short, so a caller
// that takes snapshots in a loop can reuse one vector.
func (p *Projection) SnapshotInto(dst, base []float64, normalize bool, rng *rand.Rand) []float64 {
	if len(base) != NumBase {
		panic(fmt.Sprintf("telemetry: base vector has %d signals, want %d", len(base), NumBase))
	}
	out := resize(dst, p.width)
	for i := range p.steps {
		st := &p.steps[i]
		v := st.spec.value(base, rng)
		if st.out >= 0 {
			out[st.out] = v
		}
	}
	// Every position is a step's output or a duplicate of one, so a reused
	// dst is overwritten whole.
	for _, d := range p.dups {
		out[d[0]] = out[d[1]]
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

// drawsNoise reports whether the counter reads the noise stream.
func (sp *counterSpec) drawsNoise() bool {
	return sp.kind == kindNoisy || sp.kind == kindDebug
}

// reads returns the base signals value reads: for the counter's output
// when kept, otherwise only those that decide how far it advances the
// noise stream (a noisy counter draws only for a nonzero signal, a debug
// counter always draws once).
func (sp *counterSpec) reads(kept bool) []uint16 {
	switch sp.kind {
	case kindSum:
		return sp.src[:2]
	case kindCombo:
		return sp.src[:3]
	case kindDebug:
		if !kept {
			return nil
		}
	}
	return sp.src[:1]
}

// value computes the counter from an interval's base signals, drawing
// from rng as the full expansion does.
func (sp *counterSpec) value(base []float64, rng *rand.Rand) float64 {
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
	return v
}

// Aggregate sums successive interval base vectors into one coarser vector,
// matching the paper's "sum over successive intervals and re-normalize"
// procedure for coarser prediction granularities. It returns nil for no
// vectors.
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

// AggregateInto is Aggregate for the projection's snapshots, summing into
// dst: it sums only the base signals the projection reads and zeroes the
// others, so that SnapshotInto of the result equals, bit for bit and noise
// stream included, SnapshotInto of the full sum. It returns dst resliced
// to NumBase, or a new vector when dst is too short, and nil for no
// vectors. Every vector must hold NumBase signals.
func (p *Projection) AggregateInto(dst []float64, bases [][]float64) []float64 {
	if len(bases) == 0 {
		return nil
	}
	out := resize(dst, NumBase)
	clear(out)
	for _, b := range bases {
		b = b[:NumBase]
		for _, i := range p.reads {
			out[i] += b[i]
		}
	}
	return out
}

// Width returns the number of counters a snapshot holds.
func (p *Projection) Width() int { return p.width }

// resize returns dst resliced to n, or a new vector of n when dst's
// capacity is short.
func resize(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
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
