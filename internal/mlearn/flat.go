package mlearn

// The fitted form of every tree model: one arena of packed node records.
//
// The CART grower appends each tree to its model's arena in preorder (a
// node's left child is adjacent to it), and prediction descends a block
// of up to 32 trees at a time, one level per step, with a branch-free
// child select. Ensembles add leaf values in tree order, so the rounding
// sequence is fixed by the fit. The arena is also what Save writes —
// converted to flatNode wire records, one preorder list per tree — and
// what LoadClassifier rebuilds after checking the records' structure.

import (
	"fmt"
	"math"
)

// cleanPredictor is the allocation-free evaluation every classifier in
// this package implements: predictClean assumes x already passed
// cleanFeatures, letting MultiOutput.PredictProbaInto sanitize once and
// share the vector across every per-node model.
type cleanPredictor interface {
	predictClean(x []float64) float64
}

// packedNode is one tree node. A split sends x left iff
// x[feat] <= thr; a leaf has feat 0, stores its value in thr and links
// to itself through both kids, so a step taken at a leaf stays there.
type packedNode struct {
	thr  float64
	feat int32
	kid  [2]int32 // left, right
}

// descendBlock is how many trees descend side by side.
const descendBlock = 32

// flatArena stores a model's trees, each laid out in preorder, with
// their root offsets and the deepest tree's root-to-leaf edge count. An
// arena without roots belongs to an unfitted model.
type flatArena struct {
	nodes []packedNode
	roots []int32
	depth int
}

// descend moves each node index in blk (at most descendBlock trees,
// starting at their roots) down to its leaf. The whole block steps one
// level at a time: left iff x[f] <= thr, so NaN (never ≤) goes right,
// but the child is picked by a select rather than a branch, so trees of
// different path lengths cost no mispredictions. Leaves loop to
// themselves, so descent ends once no index moved, and after at most
// depth steps.
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

// leaf returns the value of the leaf x reaches from node i, walking one
// tree on its own: fitting scores each new tree row by row, where a
// block has nothing to overlap. Links point forward, so the walk ends.
func (a *flatArena) leaf(x []float64, i int32) float64 {
	for {
		n := &a.nodes[i]
		if n.kid[0] == i {
			return n.thr
		}
		if x[n.feat] <= n.thr {
			i = n.kid[0]
		} else {
			i = n.kid[1]
		}
	}
}

// sum returns start plus scale times every tree's leaf value for x,
// added in tree order.
func (a *flatArena) sum(x []float64, start, scale float64) float64 {
	var blk [descendBlock]int32
	for roots := a.roots; len(roots) > 0; {
		n := copy(blk[:], roots)
		roots = roots[n:]
		a.descend(x, blk[:n])
		for _, i := range blk[:n] {
			start += scale * a.nodes[i].thr
		}
	}
	return start
}

// checkWidth refuses an arena with no trees, or one that splits on a
// feature an n-wide input lacks.
func (a *flatArena) checkWidth(kind string, n int) error {
	if len(a.roots) == 0 {
		return fmt.Errorf("%s: %w", kind, ErrNotFitted)
	}
	for i, nd := range a.nodes {
		if nd.kid[0] != int32(i) && int(nd.feat) >= n {
			return fmt.Errorf("%s splits on feature %d of a %d-wide input", kind, nd.feat, n)
		}
	}
	return nil
}

// wire returns tree k in its saved form: preorder flatNode records
// linked by index within the tree, -1 for a leaf's links.
func (a *flatArena) wire(k int) []flatNode {
	lo, hi := a.roots[k], int32(len(a.nodes))
	if k+1 < len(a.roots) {
		hi = a.roots[k+1]
	}
	out := make([]flatNode, hi-lo)
	for i := lo; i < hi; i++ {
		n := a.nodes[i]
		if n.kid[0] == i {
			out[i-lo] = flatNode{Value: n.thr, Leaf: true, Left: -1, Right: -1}
			continue
		}
		out[i-lo] = flatNode{
			Feature:   int(n.feat),
			Threshold: n.thr,
			Left:      int(n.kid[0] - lo),
			Right:     int(n.kid[1] - lo),
		}
	}
	return out
}

// wireAll returns every tree in its saved form.
func (a *flatArena) wireAll() [][]flatNode {
	out := make([][]flatNode, len(a.roots))
	for k := range out {
		out[k] = a.wire(k)
	}
	return out
}

// appendWire checks one saved tree and appends it to the arena. The
// records may come from outside the process (a profile upload), so one
// forward pass checks the structure before anything can descend it:
// the tree is not empty, every split links strictly forward (as wire
// writes them) to nodes that have no other parent, and split features
// are non-negative and fit a packed record. Forward links rule out
// cycles, such as a node linked to itself, and single parents rule out
// shared subtrees; a node no split links to is unreachable. The pass
// also measures the tree's depth, since a parent precedes its children.
func (a *flatArena) appendWire(nodes []flatNode) error {
	if len(nodes) == 0 {
		return fmt.Errorf("%w: empty tree", ErrCorruptTree)
	}
	if len(a.nodes)+len(nodes) > math.MaxInt32 {
		return fmt.Errorf("%w: %d nodes overflow the arena", ErrCorruptTree, len(a.nodes)+len(nodes))
	}
	off := int32(len(a.nodes))
	depth := make([]int, len(nodes)) // 0 until a parent links the node
	for i, fn := range nodes {
		idx := off + int32(i)
		if i > 0 && depth[i] == 0 {
			return fmt.Errorf("%w: node %d is unreachable", ErrCorruptTree, i)
		}
		if fn.Leaf {
			a.nodes = append(a.nodes, packedNode{thr: fn.Value, kid: [2]int32{idx, idx}})
			a.depth = max(a.depth, depth[i])
			continue
		}
		if fn.Feature < 0 || fn.Feature > math.MaxInt32 {
			return fmt.Errorf("%w: node %d splits on feature %d", ErrCorruptTree, i, fn.Feature)
		}
		for _, kid := range [2]int{fn.Left, fn.Right} {
			if kid <= i || kid >= len(nodes) {
				return fmt.Errorf("%w: node %d links (%d,%d), want forward links below %d",
					ErrCorruptTree, i, fn.Left, fn.Right, len(nodes))
			}
			if depth[kid] != 0 {
				return fmt.Errorf("%w: node %d has two parents", ErrCorruptTree, kid)
			}
			depth[kid] = depth[i] + 1
		}
		a.nodes = append(a.nodes, packedNode{
			thr:  fn.Threshold,
			feat: int32(fn.Feature),
			kid:  [2]int32{off + int32(fn.Left), off + int32(fn.Right)},
		})
	}
	a.roots = append(a.roots, off)
	return nil
}
