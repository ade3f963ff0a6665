package mlearn

// RFConfig configures a random forest.
type RFConfig struct {
	// Trees is the ensemble size. Zero means 30.
	Trees int

	// MaxDepth per tree. Zero means 10.
	MaxDepth int

	// MinLeaf per tree. Zero means 2.
	MinLeaf int

	// Mtry is the number of candidate features per split. Zero means
	// (d+2)/3, at least 2 (see Fit).
	Mtry int

	// Seed drives bootstrap sampling and feature subsampling.
	Seed int64
}

// RandomForest is a bagged ensemble of CART trees with per-split feature
// subsampling — the paper's "RF". Probabilities are the mean of per-tree
// leaf estimates; out-of-bag probabilities are retained for stacking.
type RandomForest struct {
	cfg   RFConfig
	arena flatArena
	oob   []float64 // out-of-bag probability per training row
	hasOO []bool
}

var _ Classifier = (*RandomForest)(nil)

// NewRandomForest creates an unfitted forest.
func NewRandomForest(cfg RFConfig) *RandomForest {
	if cfg.Trees <= 0 {
		cfg.Trees = 30
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 10
	}
	if cfg.MinLeaf <= 0 {
		cfg.MinLeaf = 2
	}
	return &RandomForest{cfg: cfg}
}

// Fit grows the ensemble on bootstrap resamples with balanced class
// weights.
func (m *RandomForest) Fit(x [][]float64, y []int) error {
	return m.fitPrepared(Prepare(x), y, &workspace{})
}

func (m *RandomForest) fitPrepared(px *Prepared, y []int, ws *workspace) error {
	x := px.x
	d, err := px.check(y)
	if err != nil {
		return err
	}
	// Default mtry is d/3 (the regression-forest convention) rather than
	// √d: leak signatures concentrate in the few sensors hydraulically
	// near each node, and √d subsampling rarely offers them to a split.
	mtry := m.cfg.Mtry
	if mtry <= 0 {
		mtry = (d + 2) / 3
		if mtry < 2 {
			mtry = 2
		}
	}
	cw := classWeights(y)
	n := len(x)
	target := make([]float64, n)
	baseWeight := make([]float64, n)
	for i, v := range y {
		target[i] = float64(v)
		baseWeight[i] = cw[v]
	}

	rng := seeded(&ws.rng, m.cfg.Seed)
	m.arena = flatArena{roots: make([]int32, 0, m.cfg.Trees)}
	oobSum := make([]float64, n)
	oobCount := make([]int, n)
	weight := make([]float64, n)
	bin := px.bins() // shared across all trees and output columns

	for t := 0; t < m.cfg.Trees; t++ {
		// Bootstrap as multiplicative weights (keeps index slices simple).
		for i := range weight {
			weight[i] = 0
		}
		inBag := make([]bool, n)
		for k := 0; k < n; k++ {
			i := rng.Intn(n)
			weight[i] += baseWeight[i]
			inBag[i] = true
		}
		var indices []int
		for i := 0; i < n; i++ {
			if inBag[i] {
				indices = append(indices, i)
			}
		}
		treeRng := seeded(&ws.tree, m.cfg.Seed+int64(t)*7919+1)
		g := newGrower(bin, target, weight, growConfig{
			maxDepth: m.cfg.MaxDepth,
			minLeaf:  m.cfg.MinLeaf,
			mtry:     mtry,
			rng:      treeRng,
			leafValue: func(idx []int) float64 {
				var w, wt float64
				for _, i := range idx {
					w += weight[i]
					wt += weight[i] * target[i]
				}
				if w <= 0 {
					return 0
				}
				return wt / w
			},
		})
		root := g.growTree(&m.arena, indices)

		for i := 0; i < n; i++ {
			if !inBag[i] {
				oobSum[i] += m.arena.leaf(x[i], root)
				oobCount[i]++
			}
		}
	}

	m.oob = make([]float64, n)
	m.hasOO = make([]bool, n)
	for i := 0; i < n; i++ {
		if oobCount[i] > 0 {
			m.oob[i] = oobSum[i] / float64(oobCount[i])
			m.hasOO[i] = true
		}
	}
	return nil
}

// PredictProba averages the trees' leaf probabilities. Non-finite
// features are treated as 0 (see Classifier).
func (m *RandomForest) PredictProba(x []float64) float64 { return m.predictClean(cleanFeatures(x)) }

func (m *RandomForest) predictClean(x []float64) float64 {
	if len(m.arena.roots) == 0 {
		return 0
	}
	return clamp01(m.arena.sum(x, 0, 1) / float64(len(m.arena.roots)))
}

// OOBProba returns the out-of-bag probability for training row i and
// whether row i was ever out of bag. Used by HybridRSL to build unbiased
// meta-features.
func (m *RandomForest) OOBProba(i int) (float64, bool) {
	if m.oob == nil || i < 0 || i >= len(m.oob) {
		return 0, false
	}
	return m.oob[i], m.hasOO[i]
}
