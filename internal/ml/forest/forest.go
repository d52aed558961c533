// Package forest implements CART decision trees and random forests, the
// paper's best-performing adaptation models. Trees are grown greedily by
// entropy reduction ("an open source implementation of the CART algorithm
// that greedily grows trees by partitioning tuning samples into groups to
// minimize label entropy"); forests bag samples and subsample features.
package forest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"clustergate/internal/ml"
)

// Node is one decision-tree node. Leaves have Feature == -1 and carry the
// positive-class probability observed in training.
type Node struct {
	Feature   int // -1 for leaves
	Threshold float64
	Left      int32 // child indices into Tree.Nodes
	Right     int32
	Prob      float64 // leaf positive probability
}

// Tree is a binary decision tree stored as a flat node array, the layout
// the microcontroller firmware consumes.
type Tree struct {
	Nodes    []Node
	MaxDepth int
}

// Score returns the leaf probability for x.
func (t *Tree) Score(x []float64) float64 {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return n.Prob
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// CheckShape reports an error unless the tree can score every input of
// the given width: it has a root, every split reads a feature below the
// width, and both children of every split lie strictly after it in the
// node array, so every walk from the root reaches a leaf within len(Nodes)
// steps. A tree decoded from untrusted bytes that fails it could loop
// forever or index out of range at inference.
func (t *Tree) CheckShape(inputs int) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("forest: tree has no nodes")
	}
	for i, n := range t.Nodes {
		if n.Feature < 0 {
			continue // leaf
		}
		if n.Feature >= inputs {
			return fmt.Errorf("forest: node %d splits on feature %d of %d", i, n.Feature, inputs)
		}
		for _, c := range [2]int32{n.Left, n.Right} {
			if int(c) <= i || int(c) >= len(t.Nodes) {
				return fmt.Errorf("forest: node %d has child %d outside (%d, %d)", i, c, i, len(t.Nodes))
			}
		}
	}
	return nil
}

// Depth returns the maximum depth of the tree (a single leaf has depth 0).
func (t *Tree) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return 0
		}
		l, r := walk(n.Left), walk(n.Right)
		if r > l {
			l = r
		}
		return 1 + l
	}
	return walk(0)
}

// TreeConfig controls CART growth.
type TreeConfig struct {
	MaxDepth int
	// MinSamplesSplit stops splitting below this node population. Zero
	// selects 8.
	MinSamplesSplit int
	// FeatureFrac subsamples features per split (random-forest style);
	// zero or ≥1 considers all features.
	FeatureFrac float64
	Seed        int64
}

// TrainTree grows a single CART tree on the dataset.
func TrainTree(cfg TreeConfig, tune *ml.Dataset) (*Tree, error) {
	if err := tune.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxDepth <= 0 {
		return nil, fmt.Errorf("forest: MaxDepth must be positive")
	}
	if cfg.MinSamplesSplit == 0 {
		cfg.MinSamplesSplit = 8
	}
	idx := make([]int, tune.Len())
	for i := range idx {
		idx[i] = i
	}
	g := &grower{
		cfg:  cfg,
		data: tune,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	t := &Tree{MaxDepth: cfg.MaxDepth}
	g.tree = t
	g.grow(idx, 0)
	return t, nil
}

type grower struct {
	cfg  TreeConfig
	data *ml.Dataset
	rng  *rand.Rand
	tree *Tree
}

// grow builds the subtree over samples idx at the given depth and returns
// its root node index.
func (g *grower) grow(idx []int, depth int) int32 {
	node := int32(len(g.tree.Nodes))
	g.tree.Nodes = append(g.tree.Nodes, Node{Feature: -1})

	pos := 0
	for _, i := range idx {
		pos += g.data.Y[i]
	}
	prob := float64(pos) / float64(len(idx))
	g.tree.Nodes[node].Prob = prob

	if depth >= g.cfg.MaxDepth || len(idx) < g.cfg.MinSamplesSplit || pos == 0 || pos == len(idx) {
		return node
	}

	feat, thr, ok := g.bestSplit(idx)
	if !ok {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if g.data.X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node
	}
	l := g.grow(left, depth+1)
	r := g.grow(right, depth+1)
	n := &g.tree.Nodes[node]
	n.Feature = feat
	n.Threshold = thr
	n.Left = l
	n.Right = r
	return node
}

// bestSplit finds the (feature, threshold) pair minimising weighted label
// entropy over a feature subsample.
func (g *grower) bestSplit(idx []int) (feat int, thr float64, ok bool) {
	nFeat := len(g.data.X[0])
	features := make([]int, nFeat)
	for i := range features {
		features[i] = i
	}
	if f := g.cfg.FeatureFrac; f > 0 && f < 1 {
		g.rng.Shuffle(nFeat, func(i, j int) { features[i], features[j] = features[j], features[i] })
		k := int(float64(nFeat)*f + 0.5)
		if k < 1 {
			k = 1
		}
		features = features[:k]
	}

	type pair struct {
		v float64
		y int
	}
	vals := make([]pair, len(idx))
	bestGain := math.Inf(-1)
	total := len(idx)
	totalPos := 0
	for _, i := range idx {
		totalPos += g.data.Y[i]
	}
	parentH := entropy(totalPos, total)

	for _, f := range features {
		for k, i := range idx {
			vals[k] = pair{g.data.X[i][f], g.data.Y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })

		leftPos, leftN := 0, 0
		for k := 0; k < len(vals)-1; k++ {
			leftPos += vals[k].y
			leftN++
			if vals[k].v == vals[k+1].v {
				continue // cannot split between equal values
			}
			rightPos := totalPos - leftPos
			rightN := total - leftN
			h := (float64(leftN)*entropy(leftPos, leftN) +
				float64(rightN)*entropy(rightPos, rightN)) / float64(total)
			gain := parentH - h
			if gain > bestGain {
				bestGain = gain
				feat = f
				thr = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
		}
	}
	if bestGain <= 1e-12 {
		return 0, 0, false
	}
	return feat, thr, ok
}

// entropy returns the binary entropy of pos positives among n samples.
func entropy(pos, n int) float64 {
	if n == 0 || pos == 0 || pos == n {
		return 0
	}
	p := float64(pos) / float64(n)
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// Forest is a bagged ensemble of CART trees. Score is the mean of the
// trees' votes, matching the majority-vote inference the firmware runs.
type Forest struct {
	Trees []*Tree
}

// Config controls random-forest training.
type Config struct {
	NumTrees int
	MaxDepth int
	// BagFrac is the bootstrap sample fraction per tree. Zero selects 1.0.
	BagFrac float64
	// FeatureFrac per split. Zero selects sqrt(features)/features.
	FeatureFrac float64
	Seed        int64
}

// Train fits a random forest to the tuning set.
func Train(cfg Config, tune *ml.Dataset) (*Forest, error) {
	if err := tune.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumTrees <= 0 || cfg.MaxDepth <= 0 {
		return nil, fmt.Errorf("forest: NumTrees and MaxDepth must be positive")
	}
	if cfg.BagFrac == 0 {
		cfg.BagFrac = 1
	}
	featureFrac := cfg.FeatureFrac
	if featureFrac == 0 {
		n := len(tune.X[0])
		featureFrac = math.Sqrt(float64(n)) / float64(n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Forest{}
	for t := 0; t < cfg.NumTrees; t++ {
		// Bootstrap sample.
		n := int(float64(tune.Len()) * cfg.BagFrac)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(tune.Len())
		}
		bag := tune.Subset(idx)
		tree, err := TrainTree(TreeConfig{
			MaxDepth:        cfg.MaxDepth,
			FeatureFrac:     featureFrac,
			MinSamplesSplit: 8,
			Seed:            rng.Int63(),
		}, bag)
		if err != nil {
			return nil, err
		}
		f.Trees = append(f.Trees, tree)
	}
	return f, nil
}

// CheckShape reports an error unless the forest has at least one tree and
// every tree passes Tree.CheckShape for the input width.
func (f *Forest) CheckShape(inputs int) error {
	if len(f.Trees) == 0 {
		return fmt.Errorf("forest: no trees")
	}
	for i, t := range f.Trees {
		if t == nil {
			return fmt.Errorf("forest: tree %d is missing", i)
		}
		if err := t.CheckShape(inputs); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
	}
	return nil
}

// Score returns the fraction of trees voting for the positive class,
// weighting each tree's vote by its leaf decision.
func (f *Forest) Score(x []float64) float64 {
	votes := 0.0
	for _, t := range f.Trees {
		if t.Score(x) >= 0.5 {
			votes++
		}
	}
	return votes / float64(len(f.Trees))
}

// Merge combines two forests into one ensemble, the paper's Table 6
// construction: HDTR-trained trees grafted with application-specific trees.
func Merge(a, b *Forest) *Forest {
	out := &Forest{}
	out.Trees = append(out.Trees, a.Trees...)
	out.Trees = append(out.Trees, b.Trees...)
	return out
}
