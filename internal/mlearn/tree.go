package mlearn

import (
	"math/rand"
	"sort"
)

// CART trees with histogram-based split finding: every feature is
// quantile-binned once per feature matrix (at most 32 bins) — a Prepared
// matrix bins once and shares the result with every tree of every output
// column fitted over it — and split search scans per-bin weight/target
// histograms instead of re-sorting samples at every node. This is the
// standard trick from modern boosting systems; it makes per-node split
// cost O(samples + bins) per feature and lets the forest and booster
// train on tens of thousands of hydraulic scenarios.

const maxBins = 32

// binner holds per-feature quantile bin edges and the precomputed bin
// index of every (sample, feature) pair, stored column-major so split
// search reads one contiguous column per candidate feature.
type binner struct {
	// edges[f] are ascending cut values; bin b covers values in
	// (edges[b-1], edges[b]]; the last bin is open-ended.
	edges [][]float64

	// cols[f][i] is sample i's bin index for feature f. All columns
	// share one backing array.
	cols [][]uint8
}

// newBinner computes quantile bins for the feature matrix.
func newBinner(x [][]float64) *binner {
	n := len(x)
	d := len(x[0])
	b := &binner{
		edges: make([][]float64, d),
		cols:  make([][]uint8, d),
	}
	flat := make([]uint8, n*d)
	vals := make([]float64, n)
	for f := 0; f < d; f++ {
		for i := range x {
			vals[i] = x[i][f]
		}
		sort.Float64s(vals)
		// Up to maxBins-1 quantile cuts, deduplicated.
		var edges []float64
		for k := 1; k < maxBins; k++ {
			q := vals[k*(n-1)/maxBins]
			if len(edges) == 0 || q > edges[len(edges)-1] {
				edges = append(edges, q)
			}
		}
		b.edges[f] = edges
		col := flat[f*n : (f+1)*n : (f+1)*n]
		for i := range x {
			// SearchFloat64s returns the first edge ≥ value, so values
			// equal to an edge land in that edge's bin — consistent with
			// the (lo, hi] convention used at prediction time.
			col[i] = uint8(sort.SearchFloat64s(edges, x[i][f]))
		}
		b.cols[f] = col
	}
	return b
}

// threshold returns the split value for "bin ≤ b": the edge value itself
// (prediction uses x ≤ threshold ⇒ left, matching SearchFloat64s).
func (b *binner) threshold(f, bin int) float64 {
	return b.edges[f][bin]
}

// growConfig parameterizes the CART grower.
type growConfig struct {
	maxDepth int
	minLeaf  int
	mtry     int        // candidate features per split; 0 = all
	rng      *rand.Rand // required when mtry > 0

	// leafValue computes a leaf's prediction from its sample indices. For
	// classification this is the weighted positive fraction; boosting uses
	// a Newton step.
	leafValue func(indices []int) float64
}

// grower builds CART trees by weighted-variance reduction over binned
// features. For binary 0/1 targets weighted variance is p(1−p)·W —
// proportional to weighted Gini — so the same criterion serves
// classification and regression.
type grower struct {
	bin    *binner
	target []float64
	weight []float64
	wt     []float64 // weight[i]·target[i], fixed for the tree
	cfg    growConfig
	feats  []int // scratch: candidate feature ids

	// hist[b] is bin b's (Σweight, Σweight·target) for the feature
	// being scanned.
	hist [maxBins][2]float64
}

// newGrower prepares a grower for one tree; bin is shared by every tree
// built from the same matrix (random forest, boosting rounds, output
// columns).
func newGrower(bin *binner, target, weight []float64, cfg growConfig) *grower {
	if cfg.maxDepth <= 0 {
		cfg.maxDepth = 6
	}
	if cfg.minLeaf <= 0 {
		cfg.minLeaf = 2
	}
	g := &grower{bin: bin, target: target, weight: weight, cfg: cfg}
	g.wt = make([]float64, len(weight))
	for i, w := range weight {
		g.wt[i] = w * target[i]
	}
	g.feats = make([]int, len(bin.cols))
	for j := range g.feats {
		g.feats[j] = j
	}
	return g
}

// growTree grows one tree over indices into a and returns its root.
func (g *grower) growTree(a *flatArena, indices []int) int32 {
	root := g.grow(a, indices, 0)
	a.roots = append(a.roots, root)
	return root
}

// grow appends the subtree over indices, at the given depth, to a in
// preorder — the node, then its left subtree, then its right — and
// returns the subtree's offset.
func (g *grower) grow(a *flatArena, indices []int, depth int) int32 {
	if depth >= g.cfg.maxDepth || len(indices) < 2*g.cfg.minLeaf || g.pure(indices) {
		return g.leaf(a, indices, depth)
	}
	feat, bin, ok := g.bestSplit(indices)
	if !ok {
		return g.leaf(a, indices, depth)
	}
	// Partition in place: left = bin ≤ split bin.
	col := g.bin.cols[feat]
	lo, hi := 0, len(indices)
	for lo < hi {
		if int(col[indices[lo]]) <= bin {
			lo++
		} else {
			hi--
			indices[lo], indices[hi] = indices[hi], indices[lo]
		}
	}
	left, right := indices[:lo], indices[lo:]
	if len(left) < g.cfg.minLeaf || len(right) < g.cfg.minLeaf {
		return g.leaf(a, indices, depth)
	}
	idx := int32(len(a.nodes))
	a.nodes = append(a.nodes, packedNode{thr: g.bin.threshold(feat, bin), feat: int32(feat)})
	l := g.grow(a, left, depth+1)
	r := g.grow(a, right, depth+1)
	a.nodes[idx].kid = [2]int32{l, r}
	return idx
}

// leaf appends a leaf over indices at the given depth.
func (g *grower) leaf(a *flatArena, indices []int, depth int) int32 {
	idx := int32(len(a.nodes))
	a.nodes = append(a.nodes, packedNode{thr: g.cfg.leafValue(indices), kid: [2]int32{idx, idx}})
	a.depth = max(a.depth, depth)
	return idx
}

func (g *grower) pure(indices []int) bool {
	first := g.target[indices[0]]
	for _, i := range indices[1:] {
		if g.target[i] != first {
			return false
		}
	}
	return true
}

// bestSplit scans candidate features' bin histograms for the split with
// the greatest weighted-variance reduction. It returns the feature and the
// highest bin index of the left child.
func (g *grower) bestSplit(indices []int) (feature, bin int, ok bool) {
	candidates := g.feats
	if g.cfg.mtry > 0 && g.cfg.mtry < len(g.feats) {
		g.cfg.rng.Shuffle(len(g.feats), func(i, j int) { g.feats[i], g.feats[j] = g.feats[j], g.feats[i] })
		candidates = g.feats[:g.cfg.mtry]
	}

	var wSum, wtSum float64
	for _, i := range indices {
		wSum += g.weight[i]
		wtSum += g.wt[i]
	}
	if wSum <= 0 {
		return 0, 0, false
	}
	parentScore := wtSum * wtSum / wSum

	bestGain := 1e-12
	for _, f := range candidates {
		nb := len(g.bin.edges[f]) + 1
		if nb < 2 {
			continue
		}
		hist := g.hist[:nb]
		for b := range hist {
			hist[b] = [2]float64{}
		}
		col := g.bin.cols[f]
		for _, i := range indices {
			h := &hist[col[i]]
			h[0] += g.weight[i]
			h[1] += g.wt[i]
		}
		var lw, lwt float64
		for b := 0; b+1 < nb; b++ {
			lw += hist[b][0]
			lwt += hist[b][1]
			if lw <= 0 {
				continue
			}
			rw := wSum - lw
			if rw <= 0 {
				break
			}
			rwt := wtSum - lwt
			gain := lwt*lwt/lw + rwt*rwt/rw - parentScore
			if gain > bestGain {
				bestGain = gain
				feature = f
				bin = b
				ok = true
			}
		}
	}
	return feature, bin, ok
}

// TreeConfig configures a single CART classification tree.
type TreeConfig struct {
	// MaxDepth bounds tree depth. Zero means 6.
	MaxDepth int

	// MinLeaf is the minimum samples per leaf. Zero means 2.
	MinLeaf int
}

// DecisionTree is a CART classifier with weighted-Gini splits and
// class-balanced sample weights. Leaves predict the weighted positive
// fraction.
type DecisionTree struct {
	cfg   TreeConfig
	arena flatArena
}

var _ Classifier = (*DecisionTree)(nil)

// NewDecisionTree creates an unfitted CART tree.
func NewDecisionTree(cfg TreeConfig) *DecisionTree {
	return &DecisionTree{cfg: cfg}
}

// Fit grows the tree.
func (m *DecisionTree) Fit(x [][]float64, y []int) error {
	px := Prepare(x)
	if _, err := px.check(y); err != nil {
		return err
	}
	cw := classWeights(y)
	target := make([]float64, len(y))
	weight := make([]float64, len(y))
	for i, v := range y {
		target[i] = float64(v)
		weight[i] = cw[v]
	}
	indices := make([]int, len(y))
	for i := range indices {
		indices[i] = i
	}
	m.arena = flatArena{}
	newGrower(px.bins(), target, weight, growConfig{
		maxDepth: m.cfg.MaxDepth,
		minLeaf:  m.cfg.MinLeaf,
		leafValue: func(indices []int) float64 {
			var w, wt float64
			for _, i := range indices {
				w += weight[i]
				wt += weight[i] * target[i]
			}
			if w <= 0 {
				return 0
			}
			return wt / w
		},
	}).growTree(&m.arena, indices)
	return nil
}

// PredictProba returns the leaf's positive fraction. Non-finite
// features are treated as 0 (see Classifier).
func (m *DecisionTree) PredictProba(x []float64) float64 { return m.predictClean(cleanFeatures(x)) }

func (m *DecisionTree) predictClean(x []float64) float64 {
	if len(m.arena.roots) == 0 {
		return 0
	}
	return clamp01(m.arena.leaf(x, m.arena.roots[0]))
}
