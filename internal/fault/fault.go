// Package fault is the repo's deterministic fault-injection subsystem: it
// synthesises the degraded conditions the paper's guardrail mechanism
// exists to survive — telemetry dropouts, frozen or glitched counters,
// stuck or stale controller predictions, transient worker-pool task
// failures, correlated multi-trace telemetry outages, DRAM-bandwidth
// degradation, firmware-image bit flips (FlipBits), and the control-plane
// fleet classes — machine churn, telemetry delay, and ingest-shard stalls
// (FleetInjector) — on a seed-derived schedule that is reproducible down
// to the interval.
//
// Determinism is the package's contract, matching internal/parallel: every
// injection decision is a pure function of (plan seed, trace seed, rule
// index, interval index) computed with a stateless splitmix64 hash, never
// of shared RNG state or scheduling order. Two runs with the same plan and
// corpus inject byte-identical fault schedules at any worker count, which
// is what lets the exp/faults experiment compare guardrail-on against
// guardrail-off under *identical* fault streams.
//
// A Plan is JSON-configurable (see ParsePlan/LoadPlan) and compiles into
// an Injector; per-trace views (ForTrace) are handed to the deployment
// loop in internal/core, while task-level faults (FailTask) wrap worker
// pool tasks in internal/parallel fan-outs. All query methods are nil-safe
// no-ops so instrumented code never branches on enablement, mirroring
// internal/obs.
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync/atomic"

	"clustergate/internal/obs"
)

// Class identifies one injected failure mode.
type Class string

// The supported fault classes. Telemetry classes corrupt the counter
// stream the controller observes (execution itself is unaffected, as on
// real silicon where the core keeps running while its telemetry fabric
// misbehaves); prediction classes hijack the adaptation model's output;
// TaskFail injects transient errors into worker-pool tasks.
const (
	// TelemetryDrop models a lost telemetry snapshot: the interval reads
	// all-zero and the controller cannot form a new prediction from it.
	TelemetryDrop Class = "telemetry-drop"
	// CounterFreeze models stuck counters: for the whole burst the
	// controller re-reads the last unfaulted snapshot verbatim.
	CounterFreeze Class = "counter-freeze"
	// CounterGlitch models electrically glitched counters: a seed-chosen
	// subset of signals is scaled by Factor, producing physically
	// inconsistent readings (e.g. more busy cycles than cycles).
	CounterGlitch Class = "counter-glitch"
	// PredictionPin models a stuck adaptation model: predictions are
	// pinned at Pin (1 = always gate, the paper's blindspot worst case).
	PredictionPin Class = "prediction-pin"
	// PredictionStale models a wedged inference pipeline: the controller
	// repeats its previous decision instead of computing a new one.
	PredictionStale Class = "prediction-stale"
	// TaskFail injects a transient error into a worker-pool task's first
	// attempt; retries (parallel.Options.Retries) recover it.
	TaskFail Class = "task-fail"
	// TraceOutage models a correlated, rack-wide telemetry outage: a
	// seed-chosen fraction (Rate) of the corpus's traces loses telemetry
	// entirely over one shared interval window [Start, Start+Burst). Unlike
	// the per-interval classes, the schedule is correlated across traces —
	// every affected trace goes dark over the same window.
	TraceOutage Class = "trace-outage"
	// DRAMDerate models degraded memory-port throughput: during scheduled
	// windows the DRAM channel services line fills Factor× slower, so the
	// fault perturbs real execution — IPC, cycles, and every derived
	// counter — rather than just the reported telemetry values.
	DRAMDerate Class = "dram-derate"
	// MachineChurn gives a seed-chosen fraction (Rate) of a fleet's
	// machines an individual lifecycle: leave permanently, reboot for a
	// window, or join the fleet late. The affected set, each machine's
	// mode, and its transition ticks are pure functions of (plan seed,
	// rule index, machine ID) — see FleetInjector.Present.
	MachineChurn Class = "machine-churn"
	// TelemetryDelay delays a machine's telemetry intervals by a seeded
	// number of ticks: the interval is produced on time but delivered
	// late (and therefore reordered against the shard's fresher
	// intervals) — see FleetInjector.Delay.
	TelemetryDelay Class = "telemetry-delay"
	// ShardStall stops one virtual ingest shard from draining for a
	// window: every machine mapping to the stalled shard has its
	// intervals held until the stall clears. The shard partition is the
	// rule's own Shards count (virtual), never the service's physical
	// shard knob, so schedules are byte-identical at any concurrency
	// setting — see FleetInjector.Stalled.
	ShardStall Class = "shard-stall"
)

// Classes lists every supported class in a stable order.
func Classes() []Class {
	return []Class{TelemetryDrop, CounterFreeze, CounterGlitch,
		PredictionPin, PredictionStale, TaskFail, TraceOutage, DRAMDerate,
		MachineChurn, TelemetryDelay, ShardStall}
}

// Rule schedules one fault class. A burst of Burst consecutive indices
// starts at any index with probability Rate; overlapping bursts merge.
// Telemetry classes are scheduled over interval indices, prediction
// classes over prediction-window indices, and TaskFail over task indices.
type Rule struct {
	Class Class   `json:"class"`
	Rate  float64 `json:"rate"`
	// Burst is the fault duration in indices; zero selects 1.
	Burst int `json:"burst,omitempty"`
	// Factor is the CounterGlitch scale multiplier (zero selects 1000) or
	// the DRAMDerate service-gap multiplier (zero selects 4; must be ≥ 1
	// otherwise).
	Factor float64 `json:"factor,omitempty"`
	// Pin is the PredictionPin value (0 or 1).
	Pin int `json:"pin,omitempty"`
	// Start is the TraceOutage shared window's first interval index; the
	// outage covers [Start, Start+Burst) on every affected trace.
	Start int `json:"start,omitempty"`
	// Span is the MachineChurn scheduling horizon in ticks: every churn
	// transition (leave, reboot start, late join) lands in [1, Span].
	// Zero selects 16.
	Span int `json:"span,omitempty"`
	// Shards is the ShardStall virtual shard count — the partition the
	// stall schedule is drawn over, independent of the ingest layer's
	// physical shard count. Zero selects 8.
	Shards int `json:"shards,omitempty"`
}

// Plan is a complete, JSON-serialisable fault schedule: a seed and the
// rules it drives. The seed is mixed with each trace's own seed so that
// schedules decorrelate across traces while remaining reproducible.
type Plan struct {
	Seed  int64  `json:"seed"`
	Rules []Rule `json:"rules"`
}

// Validate checks rule classes, rates, and burst lengths.
func (p Plan) Validate() error {
	known := map[Class]bool{}
	for _, c := range Classes() {
		known[c] = true
	}
	for i, r := range p.Rules {
		if !known[r.Class] {
			return fmt.Errorf("fault: rule %d has unknown class %q", i, r.Class)
		}
		if r.Rate < 0 || r.Rate > 1 {
			return fmt.Errorf("fault: rule %d (%s) rate %v outside [0,1]", i, r.Class, r.Rate)
		}
		if r.Burst < 0 {
			return fmt.Errorf("fault: rule %d (%s) negative burst %d", i, r.Class, r.Burst)
		}
		if r.Pin != 0 && r.Pin != 1 {
			return fmt.Errorf("fault: rule %d (%s) pin %d not 0 or 1", i, r.Class, r.Pin)
		}
		if r.Start < 0 {
			return fmt.Errorf("fault: rule %d (%s) negative start %d", i, r.Class, r.Start)
		}
		if r.Class == DRAMDerate && r.Factor != 0 && r.Factor < 1 {
			return fmt.Errorf("fault: rule %d (%s) factor %v below 1", i, r.Class, r.Factor)
		}
		if r.Span < 0 {
			return fmt.Errorf("fault: rule %d (%s) negative span %d", i, r.Class, r.Span)
		}
		if r.Shards < 0 {
			return fmt.Errorf("fault: rule %d (%s) negative shards %d", i, r.Class, r.Shards)
		}
	}
	return nil
}

// ParsePlan decodes and validates a JSON plan.
func ParsePlan(b []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(b, &p); err != nil {
		return Plan{}, fmt.Errorf("fault: parsing plan: %w", err)
	}
	return p, p.Validate()
}

// LoadPlan reads and validates a JSON plan file.
func LoadPlan(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("fault: reading plan: %w", err)
	}
	return ParsePlan(b)
}

// WriteFile writes the plan as indented JSON.
func (p Plan) WriteFile(path string) error {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// injected counts every fault event injected process-wide, for run
// manifests (the ISSUE's fault/injected counter).
var injected = obs.NewCounter("fault.injected")

// Injector is a compiled plan. It is immutable and safe for concurrent
// use; per-trace state lives in the TraceInjector views it hands out. A
// nil Injector injects nothing.
type Injector struct {
	plan Plan
}

// NewInjector validates and compiles a plan.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: p}, nil
}

// Plan returns the compiled plan.
func (inj *Injector) Plan() Plan {
	if inj == nil {
		return Plan{}
	}
	return inj.plan
}

// ForTrace derives the deterministic per-trace view used by a deployment
// loop. The schedule depends only on (plan seed, trace seed), never on
// when or where the trace is executed. A nil Injector yields a nil
// TraceInjector, which injects nothing.
//
// The view compiles the telemetry, DRAM-derate and prediction rules into
// one schedule list per query, each rule's class, rate, burst and factor
// resolved once; a rule that can never fire (Rate <= 0) is left out.
func (inj *Injector) ForTrace(traceSeed int64) *TraceInjector {
	if inj == nil {
		return nil
	}
	seed := inj.plan.Seed ^ traceSeed ^ 0x666c74 // "flt"
	ti := &TraceInjector{seed: seed}
	var nTel, nMem, nPred int
	for _, r := range inj.plan.Rules {
		if r.Rate > 0 {
			switch r.Class {
			case TelemetryDrop, CounterFreeze, CounterGlitch:
				nTel++
			case DRAMDerate:
				nMem++
			case PredictionPin, PredictionStale:
				nPred++
			}
		}
	}
	all := make([]schedule, 0, nTel+nMem+nPred)
	ti.telemetry, ti.derates, ti.predictions = all[:0:nTel], all[nTel:nTel:nTel+nMem], all[nTel+nMem:nTel+nMem]
	for ri, r := range inj.plan.Rules {
		sc := schedule{ri: ri, class: r.Class, rate: r.Rate, burst: max(r.Burst, 1), factor: r.Factor, pin: r.Pin}
		switch {
		case r.Class == TraceOutage:
			// TraceOutage membership: whether this trace is inside a rule's
			// outage is a pure function of (plan seed, rule index, trace
			// seed), while the blanked window itself is shared by every
			// member — that is what makes the fault correlated across the
			// corpus.
			if Hash01(inj.plan.Seed^0x6f7574 /* "out" */, ri, int(traceSeed)) < r.Rate {
				ti.outages = append(ti.outages, [2]int{r.Start, endOf(r.Start, sc.burst)})
			}
		case r.Rate <= 0:
		case r.Class == TelemetryDrop, r.Class == CounterFreeze, r.Class == CounterGlitch:
			sc.seed = seed
			if r.Class == CounterGlitch && sc.factor == 0 {
				sc.factor = 1000
			}
			ti.telemetry = append(ti.telemetry, sc)
		case r.Class == DRAMDerate:
			sc.seed = seed ^ 0x6d656d // "mem"
			if sc.factor == 0 {
				sc.factor = 4
			}
			ti.derates = append(ti.derates, sc)
		case r.Class == PredictionPin, r.Class == PredictionStale:
			sc.seed = seed ^ 0x7072 // "pr"
			ti.predictions = append(ti.predictions, sc)
		}
	}
	return ti
}

// FailTask returns an injected transient error for the given task index
// on its first attempt, per any TaskFail rules; retried attempts always
// succeed. Use it to wrap worker-pool tasks run with parallel retry
// options. Nil-safe.
func (inj *Injector) FailTask(task, attempt int) error {
	if inj == nil || attempt > 0 {
		return nil
	}
	for ri, r := range inj.plan.Rules {
		if r.Class != TaskFail {
			continue
		}
		if activeAt(inj.plan.Seed^0x7461736b /* "task" */, ri, task, r.Rate, r.Burst) {
			injected.Inc()
			return fmt.Errorf("fault: injected transient failure in task %d", task)
		}
	}
	return nil
}

// TraceInjector is one trace's deterministic fault schedule. Methods are
// nil-safe and must be called from a single goroutine (the trace's
// deployment loop), matching how internal/core uses it.
type TraceInjector struct {
	seed int64
	// telemetry, derates and predictions are the plan's rules of each
	// query's classes, in plan order, each with its own cursor.
	telemetry, derates, predictions []schedule
	injected                        atomic.Int64
	// lastGood is the most recent unfaulted telemetry vector itself: stuck
	// counters (CounterFreeze) re-read it verbatim for the whole burst,
	// like real silicon holding its last good sample.
	lastGood []float64
	// zero is the all-zero vector every dropped interval reads.
	zero []float64
	// outages are the [start, end) interval windows of the TraceOutage
	// rules this trace is a member of, resolved once at ForTrace time.
	outages [][2]int
}

// schedule is one rule compiled for a trace view: the parameters its
// queries read, and a cursor over its burst starts. A burst of burst
// indices starts at any index s with Hash01(seed, ri, s) < rate.
type schedule struct {
	ri     int   // the rule's plan index, the schedule hash's key
	seed   int64 // the trace seed salted for the rule's query
	class  Class
	rate   float64
	burst  int     // at least 1
	factor float64 // the glitch scale or derate multiplier, defaults resolved
	pin    int
	// next is the first start index not yet hashed, and end is one past
	// the last index the bursts starting before next cover, saturated at
	// math.MaxInt.
	next, end int
}

// active reports whether the rule covers index idx, as activeAt does. A
// query at or after the cursor hashes only the starts it has not seen
// that can still reach idx, so a deployment walking forward hashes each
// start once; an earlier query, or one at math.MaxInt, past which the
// cursor cannot move, falls back to activeAt. Both read the same hashes,
// so the answer does not depend on query order.
func (s *schedule) active(idx int) bool {
	if idx < s.next || idx == math.MaxInt {
		return activeAt(s.seed, s.ri, idx, s.rate, s.burst)
	}
	for st := max(s.next, idx-s.burst+1); st <= idx; st++ {
		if Hash01(s.seed, s.ri, st) < s.rate {
			s.end = endOf(st, s.burst)
		}
	}
	s.next = idx + 1
	return idx < s.end
}

// endOf returns the end of a burst of burst ≥ 1 indices starting at
// start ≥ 0, saturated at math.MaxInt: ParsePlan accepts bursts up to
// math.MaxInt, at which start+burst would wrap.
func endOf(start, burst int) int {
	if start > math.MaxInt-burst {
		return math.MaxInt
	}
	return start + burst
}

// count records one injected fault event.
func (ti *TraceInjector) count() {
	ti.injected.Add(1)
	injected.Inc()
}

// zeros returns the view's all-zero vector of n signals.
func (ti *TraceInjector) zeros(n int) []float64 {
	if len(ti.zero) != n {
		ti.zero = make([]float64, n)
	}
	return ti.zero
}

// Injected returns how many fault events this trace view has injected so
// far; the count is deterministic for a fixed plan and trace.
func (ti *TraceInjector) Injected() int64 {
	if ti == nil {
		return 0
	}
	return ti.injected.Load()
}

// Telemetry returns the telemetry vector the controller observes for
// interval idx, applying any active telemetry-class fault to the true
// vector base. prev is the previous interval's *true* vector, a fallback
// latch for a freeze starting on the very first observed interval; it may
// be nil. The returned dropped flag reports a TelemetryDrop specifically:
// the snapshot never arrived, so the controller cannot compute a fresh
// prediction from this interval.
//
// Calls must be made in interval order (the deployment loop's natural
// order): CounterFreeze latches the last unfaulted vector and re-reads it
// verbatim for the whole burst, so the schedule is deterministic but the
// frozen *value* depends on where the burst started.
//
// The view keeps base itself as that latch, not a copy, so base and prev
// must stay unchanged until the deployment ends, as core.IntervalSource
// vectors do. The returned vector is read-only: it is base, prev, the
// latched vector or the view's shared zero vector, except for a glitch,
// which builds its own.
func (ti *TraceInjector) Telemetry(idx int, base, prev []float64) (out []float64, faulted, dropped bool) {
	if ti == nil {
		return base, false, false
	}
	// A correlated outage takes precedence over per-interval faults: the
	// snapshot never leaves the dark rack, so it reads as dropped.
	for _, o := range ti.outages {
		if idx >= o[0] && idx < o[1] {
			ti.count()
			return ti.zeros(len(base)), true, true
		}
	}
	for i := range ti.telemetry {
		s := &ti.telemetry[i]
		if !s.active(idx) {
			continue
		}
		ti.count()
		switch s.class {
		case TelemetryDrop:
			return ti.zeros(len(base)), true, true
		case CounterFreeze:
			held := ti.lastGood
			if held == nil {
				held = prev
			}
			if held == nil {
				return ti.zeros(len(base)), true, false
			}
			return held, true, false
		default: // CounterGlitch
			glitched := make([]float64, len(base))
			for j, v := range base {
				// A seed-chosen half of the signals overscale, producing
				// physically inconsistent readings.
				if Hash01(ti.seed^0x676c /* "gl" */, s.ri, idx*1031+j) < 0.5 {
					v *= s.factor
				}
				glitched[j] = v
			}
			return glitched, true, false
		}
	}
	ti.lastGood = base
	return base, false, false
}

// Prediction returns the prediction the controller acts on for window w,
// applying any active prediction-class fault to the model's output pred.
// prev is the previous acted-on prediction (for PredictionStale).
func (ti *TraceInjector) Prediction(w, pred, prev int) (out int, faulted bool) {
	if ti == nil {
		return pred, false
	}
	for i := range ti.predictions {
		s := &ti.predictions[i]
		if !s.active(w) {
			continue
		}
		ti.count()
		if s.class == PredictionPin {
			return s.pin, true
		}
		return prev, true
	}
	return pred, false
}

// MemDerate returns the DRAM service-gap multiplier in effect at interval
// idx per any DRAMDerate rules: the largest active rule's Factor (zero
// Factor selects 4), or 1 when no derate window covers idx. The deployment
// loop applies it to the simulated core before executing the interval, so
// the fault degrades real IPC and counters. Nil-safe.
func (ti *TraceInjector) MemDerate(idx int) float64 {
	if ti == nil {
		return 1
	}
	out := 1.0
	for i := range ti.derates {
		s := &ti.derates[i]
		if !s.active(idx) {
			continue
		}
		ti.count()
		if s.factor > out {
			out = s.factor
		}
	}
	return out
}

// FlipBits flips n distinct, seed-chosen bit positions of data in place —
// the firmware-image corruption the mcu integrity envelope must detect —
// and returns the flipped positions in ascending order. The positions are
// a pure function of (seed, n, len(data)); n is clamped to the bit length.
func FlipBits(data []byte, seed int64, n int) []int {
	bits := len(data) * 8
	if n > bits {
		n = bits
	}
	if n <= 0 || bits == 0 {
		return nil
	}
	chosen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for k := 0; len(out) < n; k++ {
		pos := int(HashU64(seed^0x626974 /* "bit" */, 0, k) % uint64(bits))
		if chosen[pos] {
			continue
		}
		chosen[pos] = true
		out = append(out, pos)
		data[pos/8] ^= 1 << (pos % 8)
	}
	sort.Ints(out)
	return out
}

// activeAt reports whether rule ri, at rate and burst, covers index idx: a
// burst of burst indices (zero selects 1) starts at any index s with
// Hash01(seed, ri, s) < rate, so idx is covered when any s in
// (idx-burst, idx] starts one.
func activeAt(seed int64, ri, idx int, rate float64, burst int) bool {
	if rate <= 0 || idx < 0 {
		return false
	}
	burst = max(burst, 1)
	for s := idx; s > idx-burst && s >= 0; s-- {
		if Hash01(seed, ri, s) < rate {
			return true
		}
	}
	return false
}

// HashU64 mixes (seed, key, index) through the splitmix64 finaliser —
// stateless, so schedules are independent of query order and worker
// count. It is the one scheduling hash of the repo: fault schedules, the
// fleet's transport draws and the control plane's telemetry picks all
// derive from it, each domain salting the seed.
func HashU64(seed int64, key, idx int) uint64 {
	x := uint64(seed)
	x ^= uint64(key+1) * 0x9E3779B97F4A7C15
	x ^= uint64(idx+1) * 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Hash01 maps (seed, key, index) to a uniform [0,1) double.
func Hash01(seed int64, key, idx int) float64 {
	return float64(HashU64(seed, key, idx)>>11) / float64(1<<53)
}
