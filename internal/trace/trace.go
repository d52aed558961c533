// Package trace synthesises instruction traces with controlled
// microarchitectural behaviour. It stands in for the paper's proprietary
// trace infrastructure: the 2,648-trace HDTR corpus of 593 client/server
// applications (Table 1) and the SPEC2017 SimPoint test set (Table 2).
//
// Applications are sampled from behavioural archetypes — parameter
// distributions over instruction-level parallelism, memory intensity,
// branchiness, and footprint — and execute as a Markov chain over phases.
// Training-set blindspots in the paper arise from archetype coverage, and
// this generator reproduces that structure: a model trained on few
// applications has never seen telemetry from some archetypes and makes
// systematic errors there.
package trace

import (
	"fmt"
	"sync"
)

// OpClass enumerates instruction classes the timing model distinguishes.
type OpClass uint8

const (
	OpALU OpClass = iota // single-cycle integer
	OpMul                // 3-cycle integer multiply
	OpDiv                // long-latency integer divide
	OpFPAdd
	OpFPMul
	OpFPDiv
	OpLoad
	OpStore
	OpBranch
	numOpClasses
)

// String returns the mnemonic for the op class.
func (c OpClass) String() string {
	switch c {
	case OpALU:
		return "alu"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpFPAdd:
		return "fpadd"
	case OpFPMul:
		return "fpmul"
	case OpFPDiv:
		return "fpdiv"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpBranch:
		return "branch"
	default:
		return fmt.Sprintf("op(%d)", uint8(c))
	}
}

// Instruction is one element of a synthetic dynamic instruction stream.
// Dependencies are encoded as backward distances in the stream: Dep1 == 3
// means this instruction consumes the result of the instruction three
// positions earlier. A zero distance means no register dependency.
type Instruction struct {
	Op    OpClass
	Dep1  int32  // backward distance to first source producer, 0 = none
	Dep2  int32  // backward distance to second source producer, 0 = none
	Addr  uint64 // effective address, valid for OpLoad/OpStore
	PC    uint64 // instruction address, drives I-side behaviour
	Taken bool   // branch outcome, valid for OpBranch
}

// PhaseParams captures the statistically stationary behaviour of one
// workload phase. Each parameter maps to an observable microarchitectural
// effect in internal/uarch, which is what makes telemetry predictive of the
// best cluster configuration.
type PhaseParams struct {
	// DepDist is the mean backward dependency distance (geometric). Small
	// values create serial chains that an 8-wide machine cannot exploit;
	// large values expose ILP that only dual-cluster mode captures.
	DepDist float64

	// Instruction-mix fractions; the remainder is OpALU. FPFrac splits
	// internally between FP add/mul, LongLatFrac between integer and FP
	// divide.
	LoadFrac, StoreFrac, BranchFrac, FPFrac, LongLatFrac float64

	// DataFootprint is the span of data addresses touched (bytes). Small
	// footprints live in L1; large ones stream through L2 and memory.
	DataFootprint uint64

	// CodeFootprint is the static code span (bytes); it controls micro-op
	// cache and instruction-cache behaviour.
	CodeFootprint uint64

	// StrideFrac is the fraction of memory accesses that walk sequentially;
	// the rest are uniform over the footprint.
	StrideFrac float64

	// BranchEntropy in [0,1]: 0 means branch outcomes follow a fixed
	// per-PC bias and are nearly perfectly predictable; 1 means outcomes
	// are uniformly random.
	BranchEntropy float64

	// DepShape in [0,1] selects the dependency-distance distribution's
	// shape at a given mean parallelism: 0 produces homogeneous chains
	// (distances ~ exp(DepDist)); 1 produces a bimodal mix of fully
	// independent operations and short chains. Two phases can share IPC,
	// instruction mix, and miss rates while differing in shape — and only
	// the readiness-family counters (and the gated machine's halved MSHR
	// file) can tell them apart.
	DepShape float64
}

// Validate reports a configuration error in p, if any.
func (p PhaseParams) Validate() error {
	sum := p.LoadFrac + p.StoreFrac + p.BranchFrac + p.FPFrac + p.LongLatFrac
	if sum > 1.0+1e-9 {
		return fmt.Errorf("trace: instruction-mix fractions sum to %.3f > 1", sum)
	}
	for name, v := range map[string]float64{
		"LoadFrac": p.LoadFrac, "StoreFrac": p.StoreFrac,
		"BranchFrac": p.BranchFrac, "FPFrac": p.FPFrac,
		"LongLatFrac": p.LongLatFrac, "StrideFrac": p.StrideFrac,
		"BranchEntropy": p.BranchEntropy, "DepShape": p.DepShape,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("trace: %s = %v outside [0,1]", name, v)
		}
	}
	if p.DepDist < 1 {
		return fmt.Errorf("trace: DepDist = %v < 1", p.DepDist)
	}
	if p.DataFootprint == 0 || p.CodeFootprint == 0 {
		return fmt.Errorf("trace: zero footprint")
	}
	return nil
}

// Phase is a stretch of execution governed by one parameter set.
type Phase struct {
	Params PhaseParams
	Length int // mean instructions per visit to this phase
}

// Category labels the application families of the HDTR corpus (Table 1).
type Category uint8

const (
	CatHPC Category = iota // HPC & performance benchmarks
	CatCloud
	CatAI
	CatWeb
	CatMultimedia
	CatGames
	NumCategories
)

// String returns the corpus label for the category.
func (c Category) String() string {
	switch c {
	case CatHPC:
		return "hpc-and-perf"
	case CatCloud:
		return "cloud-and-security"
	case CatAI:
		return "ai-and-analytics"
	case CatWeb:
		return "web-and-productivity"
	case CatMultimedia:
		return "multimedia"
	case CatGames:
		return "games-rendering-ar"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// Application is a synthetic program: a Markov chain over phases plus the
// identity metadata the dataset pipeline partitions on.
type Application struct {
	Name      string
	Category  Category
	Archetype int
	// Benchmark groups applications that are the same program run on
	// different inputs (SPEC-style suites); empty for HDTR applications.
	Benchmark string
	Phases    []Phase
	// Transition[i][j] is the probability of moving from phase i to phase
	// j when a phase visit ends. Rows sum to 1.
	Transition [][]float64
	Seed       int64
}

// Trace identifies one recorded segment of an application: a distinct
// random seed and starting phase, analogous to tracing a different region
// or input of the real program.
type Trace struct {
	App        *Application
	Name       string
	Workload   string // groups traces recorded from the same input
	Seed       int64
	StartPhase int
	NumInstrs  int

	// tape holds the cycle model's recorded front end of the trace (see
	// SetTape).
	tape struct {
		mu sync.Mutex
		v  any
	}
}

// Tape returns the value SetTape last stored, or nil.
func (t *Trace) Tape() any {
	t.tape.mu.Lock()
	defer t.tape.mu.Unlock()
	return t.tape.v
}

// SetTape attaches the cycle model's recorded front end of the trace,
// replacing any earlier one, so that every deployment of the trace shares
// one recording and the recording is freed with the trace rather than
// held by a process-wide cache. The value is opaque here (the recording
// type lives in the cycle model, which depends on this package). Safe for
// concurrent use.
func (t *Trace) SetTape(v any) {
	t.tape.mu.Lock()
	defer t.tape.mu.Unlock()
	t.tape.v = v
}
