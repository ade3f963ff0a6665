package mlearn

// Flat, compiled inference for the Phase-II serving hot path.
//
// Compile converts a fitted classifier into a read-only form that
// evaluates without heap allocations: tree ensembles are flattened into
// one contiguous array of packed node records and descended a block of
// up to 32 trees at a time, one level per step, with a branch-free child
// select; the linear family inlines feature standardization into the
// weight accumulation loop. Compiled predictions are bit-identical to
// the source classifier: block descent keeps the
// `x[f] <= threshold → left` split predicate (including its
// NaN-goes-right behavior) and the ensembles add leaf values in tree
// order, the pointer path's addition sequence; the linear path keeps
// the exact transform-then-dot operation order of scaler.transform +
// matrix.Dot — the scaler is never algebraically folded into the
// weights, which would change floating-point rounding.

import "fmt"

// Compiled is the inference-only form of a fitted classifier produced by
// Compile. Implementations in this package are safe for concurrent use
// and allocate nothing on PredictProba when the input is finite.
type Compiled interface {
	// PredictProba returns P(y=1 | x), bit-identical to the source
	// classifier's PredictProba on the same input.
	PredictProba(x []float64) float64
}

// cleanPredictor is the internal fast-path contract: predictClean
// assumes x already passed cleanFeatures, letting CompiledMultiOutput
// sanitize once and share the vector across every per-node model.
type cleanPredictor interface {
	predictClean(x []float64) float64
}

// packedNode is one compiled tree node. A split sends x left iff
// x[feat] <= thr; a leaf has feat 0, stores its value in thr and links
// to itself through both kids, so a step taken at a leaf stays there.
type packedNode struct {
	thr  float64
	feat int32
	kid  [2]int32 // left, right
}

// descendBlock is how many trees descend side by side.
const descendBlock = 32

// flatArena stores one or more compiled trees, each laid out in
// preorder (a node's left child is adjacent to it), with their root
// offsets and the deepest tree's root-to-leaf edge count.
type flatArena struct {
	nodes []packedNode
	roots []int32
	depth int
}

// appendTree flattens the pointer tree rooted at n into the arena and
// records its root offset.
func (a *flatArena) appendTree(n *treeNode) {
	root, depth := a.walk(n)
	a.roots = append(a.roots, root)
	a.depth = max(a.depth, depth)
}

// walk appends the subtree at n and returns its offset and depth.
func (a *flatArena) walk(n *treeNode) (int32, int) {
	idx := int32(len(a.nodes))
	if n.leaf {
		a.nodes = append(a.nodes, packedNode{thr: n.value, kid: [2]int32{idx, idx}})
		return idx, 0
	}
	a.nodes = append(a.nodes, packedNode{thr: n.threshold, feat: int32(n.feature)})
	left, dl := a.walk(n.left)
	right, dr := a.walk(n.right)
	a.nodes[idx].kid = [2]int32{left, right}
	return idx, 1 + max(dl, dr)
}

// descend moves each node index in blk (at most descendBlock trees,
// starting at their roots) down to its leaf. The whole block steps one
// level at a time: the predicate mirrors treeNode.predict exactly —
// left iff x[f] <= thr, so NaN (never ≤) goes right — but the child is
// picked by a select rather than a branch, so trees of different path
// lengths cost no mispredictions. Leaves loop to themselves, so descent
// ends once no index moved, and after at most depth steps.
func (a *flatArena) descend(x []float64, blk []int32) {
	nodes, depth := a.nodes, a.depth
	for step := 0; step < depth; step++ {
		moved := int32(0)
		for j, i := range blk {
			n := &nodes[i]
			next, right := n.kid[0], n.kid[1]
			if !(x[n.feat] <= n.thr) {
				next = right
			}
			moved |= next ^ i
			blk[j] = next
		}
		if moved == 0 {
			return
		}
	}
}

// nodeCount returns the total flattened node count across all trees.
func (a *flatArena) nodeCount() int { return len(a.nodes) }

// FlatTree is the compiled form of DecisionTree.
type FlatTree struct {
	a flatArena
}

var _ Compiled = (*FlatTree)(nil)

// Compile flattens the fitted tree into a contiguous arena.
func (m *DecisionTree) Compile() (*FlatTree, error) {
	if m.root == nil {
		return nil, fmt.Errorf("mlearn: compile decision tree: %w", ErrNotFitted)
	}
	t := &FlatTree{}
	t.a.appendTree(m.root)
	return t, nil
}

// PredictProba returns the leaf's positive fraction.
func (t *FlatTree) PredictProba(x []float64) float64 { return t.predictClean(cleanFeatures(x)) }

func (t *FlatTree) predictClean(x []float64) float64 {
	blk := [1]int32{t.a.roots[0]}
	t.a.descend(x, blk[:])
	return clamp01(t.a.nodes[blk[0]].thr)
}

// Nodes reports the flattened node count.
func (t *FlatTree) Nodes() int { return t.a.nodeCount() }

// FlatForest is the compiled form of RandomForest: all trees share one
// arena, descended a block at a time.
type FlatForest struct {
	a flatArena
	n float64 // float64(#trees), the divisor of the ensemble mean
}

var _ Compiled = (*FlatForest)(nil)

// Compile flattens the fitted ensemble into one shared arena.
func (m *RandomForest) Compile() (*FlatForest, error) {
	if len(m.trees) == 0 {
		return nil, fmt.Errorf("mlearn: compile random forest: %w", ErrNotFitted)
	}
	f := &FlatForest{n: float64(len(m.trees))}
	for _, root := range m.trees {
		f.a.appendTree(root)
	}
	return f, nil
}

// PredictProba averages the trees' leaf probabilities.
func (f *FlatForest) PredictProba(x []float64) float64 { return f.predictClean(cleanFeatures(x)) }

func (f *FlatForest) predictClean(x []float64) float64 {
	var blk [descendBlock]int32
	sum := 0.0
	for roots := f.a.roots; len(roots) > 0; {
		n := copy(blk[:], roots)
		roots = roots[n:]
		f.a.descend(x, blk[:n])
		// Leaf values are summed in tree order, as the pointer path does.
		for _, i := range blk[:n] {
			sum += f.a.nodes[i].thr
		}
	}
	return clamp01(sum / f.n)
}

// Nodes reports the flattened node count across all trees.
func (f *FlatForest) Nodes() int { return f.a.nodeCount() }

// FlatGBM is the compiled form of GradientBoosting.
type FlatGBM struct {
	a    flatArena
	bias float64
	lr   float64
}

var _ Compiled = (*FlatGBM)(nil)

// Compile flattens the fitted boosting stages into one shared arena.
func (m *GradientBoosting) Compile() (*FlatGBM, error) {
	if m.trees == nil {
		return nil, fmt.Errorf("mlearn: compile gradient boosting: %w", ErrNotFitted)
	}
	g := &FlatGBM{bias: m.bias, lr: m.cfg.LearningRate}
	for _, root := range m.trees {
		g.a.appendTree(root)
	}
	return g, nil
}

// PredictProba returns the sigmoid of the boosted score.
func (g *FlatGBM) PredictProba(x []float64) float64 { return g.predictClean(cleanFeatures(x)) }

func (g *FlatGBM) predictClean(x []float64) float64 {
	var blk [descendBlock]int32
	score := g.bias
	for roots := g.a.roots; len(roots) > 0; {
		n := copy(blk[:], roots)
		roots = roots[n:]
		g.a.descend(x, blk[:n])
		// Stages accumulate sequentially in training order — the same
		// rounding sequence as the pointer path.
		for _, i := range blk[:n] {
			score += g.lr * g.a.nodes[i].thr
		}
	}
	return sigmoid(score)
}

// Nodes reports the flattened node count across all stages.
func (g *FlatGBM) Nodes() int { return g.a.nodeCount() }

// scaledDot standardizes x on the fly and accumulates the weighted sum
// in index order — exactly the operations of scaler.transform followed
// by matrix.Dot, without the transform's per-call allocation.
func scaledDot(w, mean, inv, x []float64) float64 {
	s := 0.0
	for j, wj := range w {
		s += wj * ((x[j] - mean[j]) * inv[j])
	}
	return s
}

// FlatLinear is the compiled form of LinearRegression.
type FlatLinear struct {
	mean, inv, w []float64
	bias         float64
}

var _ Compiled = (*FlatLinear)(nil)

// Compile snapshots the fitted coefficients and scaler.
func (m *LinearRegression) Compile() (*FlatLinear, error) {
	if !m.fitted {
		return nil, fmt.Errorf("mlearn: compile linear regression: %w", ErrNotFitted)
	}
	return &FlatLinear{
		mean: cloneFloats(m.scale.mean),
		inv:  cloneFloats(m.scale.inv),
		w:    cloneFloats(m.w),
		bias: m.bias,
	}, nil
}

// PredictProba returns the clipped linear response.
func (l *FlatLinear) PredictProba(x []float64) float64 { return l.predictClean(cleanFeatures(x)) }

func (l *FlatLinear) predictClean(x []float64) float64 {
	return clamp01(scaledDot(l.w, l.mean, l.inv, x) + l.bias)
}

// FlatLogistic is the compiled form of LogisticRegression.
type FlatLogistic struct {
	mean, inv, w []float64
	bias         float64
}

var _ Compiled = (*FlatLogistic)(nil)

// Compile snapshots the fitted coefficients and scaler.
func (m *LogisticRegression) Compile() (*FlatLogistic, error) {
	if !m.fitted {
		return nil, fmt.Errorf("mlearn: compile logistic regression: %w", ErrNotFitted)
	}
	return &FlatLogistic{
		mean: cloneFloats(m.scale.mean),
		inv:  cloneFloats(m.scale.inv),
		w:    cloneFloats(m.w),
		bias: m.bias,
	}, nil
}

// PredictProba returns the sigmoid response.
func (l *FlatLogistic) PredictProba(x []float64) float64 { return l.predictClean(cleanFeatures(x)) }

func (l *FlatLogistic) predictClean(x []float64) float64 {
	return sigmoid(scaledDot(l.w, l.mean, l.inv, x) + l.bias)
}

// FlatSVM is the compiled form of SVM.
type FlatSVM struct {
	mean, inv, w   []float64
	bias           float64
	plattA, plattB float64
}

var _ Compiled = (*FlatSVM)(nil)

// Compile snapshots the fitted hyperplane, scaler and Platt sigmoid.
func (m *SVM) Compile() (*FlatSVM, error) {
	if !m.fitted {
		return nil, fmt.Errorf("mlearn: compile svm: %w", ErrNotFitted)
	}
	return &FlatSVM{
		mean:   cloneFloats(m.scale.mean),
		inv:    cloneFloats(m.scale.inv),
		w:      cloneFloats(m.w),
		bias:   m.bias,
		plattA: m.plattA,
		plattB: m.plattB,
	}, nil
}

// PredictProba returns the Platt-scaled margin.
func (s *FlatSVM) PredictProba(x []float64) float64 { return s.predictClean(cleanFeatures(x)) }

func (s *FlatSVM) predictClean(x []float64) float64 {
	margin := scaledDot(s.w, s.mean, s.inv, x) + s.bias
	return sigmoid(s.plattA*margin + s.plattB)
}

// FlatHybrid is the compiled form of HybridRSL: compiled RF and SVM legs
// fused through the compiled logistic meta layer over a stack-allocated
// meta-feature vector.
type FlatHybrid struct {
	rf   *FlatForest
	svm  *FlatSVM
	meta *FlatLogistic
}

var _ Compiled = (*FlatHybrid)(nil)

// Compile flattens both legs and the fusion layer.
func (m *HybridRSL) Compile() (*FlatHybrid, error) {
	if !m.fitted {
		return nil, fmt.Errorf("mlearn: compile hybrid-rsl: %w", ErrNotFitted)
	}
	rf, err := m.rf.Compile()
	if err != nil {
		return nil, fmt.Errorf("mlearn: compile hybrid-rsl: %w", err)
	}
	svm, err := m.svm.Compile()
	if err != nil {
		return nil, fmt.Errorf("mlearn: compile hybrid-rsl: %w", err)
	}
	meta, err := m.meta.Compile()
	if err != nil {
		return nil, fmt.Errorf("mlearn: compile hybrid-rsl: %w", err)
	}
	return &FlatHybrid{rf: rf, svm: svm, meta: meta}, nil
}

// PredictProba fuses the two legs through the logistic layer.
func (h *FlatHybrid) PredictProba(x []float64) float64 { return h.predictClean(cleanFeatures(x)) }

func (h *FlatHybrid) predictClean(x []float64) float64 {
	rfP := h.rf.predictClean(x)
	svmP := h.svm.predictClean(x)
	// Same layout as metaFeatures, but on the stack: probabilities are
	// finite by construction, so the meta layer can skip sanitization.
	mf := [4]float64{rfP, svmP, clippedLogit(rfP), clippedLogit(svmP)}
	return h.meta.predictClean(mf[:])
}

// passthrough serves classifier types Compile does not recognize through
// their own PredictProba: semantics are preserved, the compiled-path
// zero-allocation guarantee is not.
type passthrough struct{ c Classifier }

func (p passthrough) PredictProba(x []float64) float64 { return p.c.PredictProba(x) }
func (p passthrough) predictClean(x []float64) float64 { return p.c.PredictProba(x) }

// Compile returns the allocation-free compiled form of a fitted
// classifier. Every classifier in this package flattens to a dedicated
// representation; unknown types fall back to their own PredictProba.
func Compile(c Classifier) (Compiled, error) {
	switch m := c.(type) {
	case *DecisionTree:
		return m.Compile()
	case *RandomForest:
		return m.Compile()
	case *GradientBoosting:
		return m.Compile()
	case *LinearRegression:
		return m.Compile()
	case *LogisticRegression:
		return m.Compile()
	case *SVM:
		return m.Compile()
	case *HybridRSL:
		return m.Compile()
	default:
		return passthrough{c}, nil
	}
}

// CompiledMultiOutput is the compiled form of MultiOutput: every
// per-node classifier flattened, all evaluated against one shared
// sanitized feature vector.
type CompiledMultiOutput struct {
	models []cleanPredictor
}

// Compile flattens every fitted per-output classifier.
func (m *MultiOutput) Compile() (*CompiledMultiOutput, error) {
	if m.models == nil {
		return nil, ErrNotFitted
	}
	out := &CompiledMultiOutput{models: make([]cleanPredictor, len(m.models))}
	for v, c := range m.models {
		cc, err := Compile(c)
		if err != nil {
			return nil, fmt.Errorf("mlearn: compile output %d: %w", v, err)
		}
		cp, ok := cc.(cleanPredictor)
		if !ok {
			cp = passthrough{c}
		}
		out.models[v] = cp
	}
	return out, nil
}

// Outputs returns the number of compiled outputs.
func (c *CompiledMultiOutput) Outputs() int { return len(c.models) }

// PredictProbaInto writes P(y_v = 1 | x) for every output v into out,
// sanitizing x once and sharing it across all per-node models. It
// performs no heap allocations when x is finite. len(out) must equal
// Outputs().
func (c *CompiledMultiOutput) PredictProbaInto(x, out []float64) error {
	if len(out) != len(c.models) {
		return fmt.Errorf("mlearn: output buffer has %d slots, want %d", len(out), len(c.models))
	}
	x = cleanFeatures(x)
	for v, m := range c.models {
		out[v] = m.predictClean(x)
	}
	return nil
}

// PredictProba is the allocating convenience form of PredictProbaInto.
func (c *CompiledMultiOutput) PredictProba(x []float64) ([]float64, error) {
	out := make([]float64, len(c.models))
	if err := c.PredictProbaInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

func cloneFloats(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
