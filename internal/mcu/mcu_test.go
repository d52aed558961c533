package mcu

import (
	"testing"

	"clustergate/internal/ml/forest"
	"clustergate/internal/ml/mltest"
)

func TestTable3BudgetColumn(t *testing.T) {
	s := DefaultSpec()
	// Table 3 (left): granularity → (max ops, budget).
	cases := []struct {
		granularity int
		maxOps      int
		budget      int
	}{
		{10_000, 312, 156},
		{20_000, 625, 312},
		{30_000, 937, 468},
		{40_000, 1_250, 625},
		{50_000, 1_562, 781},
		{60_000, 1_875, 937},
		{100_000, 3_125, 1_562},
	}
	for _, c := range cases {
		if got := s.MaxOps(c.granularity); got != c.maxOps {
			t.Errorf("MaxOps(%d) = %d, want %d", c.granularity, got, c.maxOps)
		}
		if got := s.OpsBudget(c.granularity); got != c.budget {
			t.Errorf("OpsBudget(%d) = %d, want %d", c.granularity, got, c.budget)
		}
	}
}

func TestFinestGranularity(t *testing.T) {
	s := DefaultSpec()
	// Best MLP needs 678 ops → 50k interval; Best RF 538 → 40k;
	// CHARSTAR's 292 → 20k (Section 7).
	cases := []struct {
		ops  int
		want int
	}{
		{678, 50_000},
		{538, 40_000},
		{292, 20_000},
		{150, 10_000},
	}
	for _, c := range cases {
		if got := s.FinestGranularity(c.ops, 10_000); got != c.want {
			t.Errorf("FinestGranularity(%d) = %d, want %d", c.ops, got, c.want)
		}
	}
}

func TestMLPCostScaling(t *testing.T) {
	small := MLPCost(12, []int{8, 8, 4})
	big := MLPCost(12, []int{32, 32, 16})
	if small.Ops >= big.Ops {
		t.Errorf("8/8/4 ops %d not below 32/32/16 ops %d", small.Ops, big.Ops)
	}
	// Paper's Best MLP (12 inputs, 8/8/4) is reported at 678 ops; our
	// accounting gives 663.
	if small.Ops != 651 {
		t.Errorf("Best MLP cost = %d ops, want 651 (paper: 678)", small.Ops)
	}
	if big.Ops != 6051 {
		t.Errorf("32/32/16 MLP cost = %d ops, want 6051 (paper: 6162)", big.Ops)
	}
	// 160B memory reported for 8/8/4 is weights-only rough accounting; ours
	// counts all weights+biases in float32.
	if small.MemoryBytes < 160 || small.MemoryBytes > 2048 {
		t.Errorf("Best MLP memory = %dB, implausible", small.MemoryBytes)
	}
}

func TestCHARSTARTopologyCost(t *testing.T) {
	// 8 counters → 1 layer of 10 filters: paper reports 292 ops.
	c := MLPCost(8, []int{10})
	if c.Ops != 303 {
		t.Errorf("CHARSTAR MLP cost = %d ops, want 303 (paper: 292)", c.Ops)
	}
}

func TestForestCost(t *testing.T) {
	// Paper's Best RF (8 trees, depth 8) is 538 ops, 20.48KB; our
	// accounting gives 545.
	c := ForestCost(8, 8)
	if c.Ops < 500 || c.Ops > 600 {
		t.Errorf("8x8 forest = %d ops, want ≈538", c.Ops)
	}
	c16 := ForestCost(16, 8)
	if c16.Ops <= c.Ops || c16.MemoryBytes != 2*c.MemoryBytes {
		t.Errorf("16-tree forest should double memory: %v vs %v", c16, c)
	}
	// Depth-16 single tree (Table 3 row 2): 133 ops reported; ours is
	// 4*16+1 = 65 plus vote overhead — same order.
	d16 := TreeCost(16)
	if d16.Ops != 131 {
		t.Errorf("depth-16 tree = %d ops, paper reports 133", d16.Ops)
	}
	if d16.MemoryBytes < 500_000 {
		t.Errorf("depth-16 tree memory = %dB; paper reports 655KB for the balanced tree", d16.MemoryBytes)
	}
}

func TestLogisticAndSVMCosts(t *testing.T) {
	lr := LogisticCost(12)
	if lr.Ops != 158 {
		t.Errorf("logistic = %d ops, paper reports 158", lr.Ops)
	}
	ens := LinearSVMCost(12, 5)
	if ens.Ops < 300 || ens.Ops > 600 {
		t.Errorf("5-SVM ensemble = %d ops, want ≈412 regime", ens.Ops)
	}
	chi := Chi2SVMCost(12, 1000)
	if chi.Ops < 100_000 {
		t.Errorf("χ² with 1000 SVs = %d ops; paper reports 121k", chi.Ops)
	}
	srch := SRCHCost(15, 10)
	if srch.Ops < 300 || srch.Ops > 800 {
		t.Errorf("SRCH(15 counters, 10 buckets) = %d ops, want ≈572 regime", srch.Ops)
	}
}

func TestOrderingMatchesTable3(t *testing.T) {
	// Table 3's cost ordering: χ² SVM >> big MLP > RF16 > best MLP ≈ RF8
	// > SRCH > CHARSTAR > logistic.
	chi := Chi2SVMCost(12, 1000).Ops
	bigMLP := MLPCost(12, []int{32, 32, 16}).Ops
	rf16 := ForestCost(16, 8).Ops
	rf8 := ForestCost(8, 8).Ops
	bestMLP := MLPCost(12, []int{8, 8, 4}).Ops
	lr := LogisticCost(12).Ops
	if !(chi > bigMLP && bigMLP > rf16 && rf16 > rf8 && bestMLP > rf8 && rf8 > lr) {
		t.Errorf("cost ordering violated: chi=%d big=%d rf16=%d rf8=%d best=%d lr=%d",
			chi, bigMLP, rf16, rf8, bestMLP, lr)
	}
}

func TestFirmwareFitsBudget(t *testing.T) {
	train := mltest.Linear(500, 12, 5, 2)
	f, err := forest.Train(forest.Config{NumTrees: 8, MaxDepth: 8, Seed: 1}, train)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFirmware("best-rf", f, 12)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSpec()
	if !fw.FitsBudget(s, 40_000) {
		t.Errorf("8x8 RF (%d ops) should fit the 40k budget (%d)", fw.Cost.Ops, s.OpsBudget(40_000))
	}
	if fw.FitsBudget(s, 10_000) && fw.Cost.Ops > s.OpsBudget(10_000) {
		t.Error("FitsBudget inconsistent at 10k")
	}
}

func TestFirmwareUnsupportedModel(t *testing.T) {
	if _, err := NewFirmware("bad", badModel{}, 4); err == nil {
		t.Error("unsupported model type accepted")
	}
}

type badModel struct{}

func (badModel) Score(x []float64) float64 { return 0 }

func TestCostString(t *testing.T) {
	if s := (Cost{Ops: 678, MemoryBytes: 160}).String(); s != "678 ops, 160B" {
		t.Errorf("Cost.String = %q", s)
	}
	if s := (Cost{Ops: 538, MemoryBytes: 20 << 10}).String(); s != "538 ops, 20.00KB" {
		t.Errorf("Cost.String = %q", s)
	}
}
