package matrix

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// SparseSPD is a symmetric positive-definite system with a fixed sparsity
// pattern, factorized as P·A·Pᵀ = L·D·Lᵀ with a reverse Cuthill-McKee
// fill-reducing permutation P. The pattern work happens once at
// construction: the permuted upper-triangle CSC layout, the elimination
// tree, the factor column layout and every factor row's pattern (the
// symbolic factorization) are all precomputed, so Factorize and Solve
// touch only preallocated arrays — zero allocations and no tree walk per
// call, which is what lets the hydraulic Newton loop refactorize every
// iteration cheaply.
//
// Assembly targets slots: resolve DiagSlot/PairSlot once, then Add
// coefficients per iteration after Reset. A SparseSPD is not safe for
// concurrent use.
type SparseSPD struct {
	n     int
	perm  []int // perm[k] = original index at permuted position k
	iperm []int // iperm[original] = permuted position

	// Upper triangle of the permuted matrix in compressed-sparse-column
	// form. Rows within a column are ascending, so the diagonal entry is
	// always the last of its column.
	colPtr []int
	rowIdx []int
	values []float64

	// Symbolic factorization: factor column layout (li is fixed by the
	// pattern) and, for every factor row k, the columns i with L[k,i] ≠ 0
	// in the topological order of the elimination tree, each with the
	// slot of L[k,i] in li/lx. Row k's entries are rowCol/rowSlot
	// [rowPtr[k], rowPtr[k+1]).
	lp      []int // factor column pointers, len n+1
	li      []int // factor row indices (strictly below diagonal)
	rowPtr  []int
	rowCol  []int32
	rowSlot []int32
	lx      []float64
	d       []float64 // D of LDLᵀ

	// Numeric workspaces.
	y []float64 // dense row accumulator of the up-looking factorization
	w []float64 // solve workspace, keeps b/x aliasing safe

	four *lanes // FactorizeFour/SolveFour state, nil until first used
}

// NewSparseSPD builds the system for an n×n matrix whose off-diagonal
// pattern is the given set of (i, j) pairs (order and duplicates are
// irrelevant; every diagonal entry is always present). The fill-reducing
// ordering and symbolic factorization are computed here, once.
func NewSparseSPD(n int, pairs [][2]int) (*SparseSPD, error) {
	if n <= 0 {
		return nil, fmt.Errorf("matrix: SparseSPD of invalid dimension %d", n)
	}
	adj := make([][]int, n)
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if i < 0 || i >= n || j < 0 || j >= n {
			return nil, fmt.Errorf("matrix: SparseSPD pair (%d,%d) out of range [0,%d)", i, j, n)
		}
		if i == j {
			continue // diagonal is implicit
		}
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	for i := range adj {
		sort.Ints(adj[i])
	}

	s := &SparseSPD{n: n}
	s.perm = ReverseCuthillMcKee(adj)
	s.iperm = InversePermutation(s.perm)

	// Permuted upper-triangle CSC pattern: relabel every edge through
	// iperm so the numeric code never touches the permutation again.
	colRows := make([][]int, n)
	for i, nbrs := range adj {
		pi := s.iperm[i]
		prev := -1
		for _, j := range nbrs {
			if j == prev {
				continue // collapse parallel edges into one slot
			}
			prev = j
			if j < i {
				continue // each undirected edge once
			}
			pj := s.iperm[j]
			r, c := pi, pj
			if r > c {
				r, c = c, r
			}
			colRows[c] = append(colRows[c], r)
		}
	}
	s.colPtr = make([]int, n+1)
	nnz := n // diagonals
	for c := 0; c < n; c++ {
		sort.Ints(colRows[c])
		nnz += len(colRows[c])
	}
	s.rowIdx = make([]int, 0, nnz)
	for c := 0; c < n; c++ {
		s.colPtr[c] = len(s.rowIdx)
		s.rowIdx = append(s.rowIdx, colRows[c]...)
		s.rowIdx = append(s.rowIdx, c) // diagonal, largest row in the column
	}
	s.colPtr[n] = len(s.rowIdx)
	s.values = make([]float64, len(s.rowIdx))

	if err := s.symbolic(); err != nil {
		return nil, err
	}
	s.y = make([]float64, n)
	s.w = make([]float64, n)
	return s, nil
}

// symbolic computes the elimination tree and, for every factor row k, its
// pattern: the union of the etree paths from the rows of column k of A,
// stacked so that every column precedes its ancestors. That is the order
// the tree-walking up-looking factorization visits them in, so the
// numeric phase performs the same operations in the same order. The row
// patterns give the factor column counts, hence the factor layout; each
// column's slots then go to its rows in ascending order. No numeric work.
func (s *SparseSPD) symbolic() error {
	n := s.n
	parent := make([]int, n)
	flag := make([]int, n)
	lnz := make([]int, n)
	pattern := make([]int, n)
	s.rowPtr = make([]int, n+1)
	for k := 0; k < n; k++ {
		parent[k] = -1
		flag[k] = k
		top := n
		for p := s.colPtr[k]; p < s.colPtr[k+1]; p++ {
			plen := 0
			for i := s.rowIdx[p]; flag[i] != k; i = parent[i] {
				if parent[i] == -1 {
					parent[i] = k
				}
				pattern[plen] = i
				plen++
				flag[i] = k
			}
			for plen > 0 {
				plen--
				top--
				pattern[top] = pattern[plen]
			}
		}
		s.rowPtr[k] = len(s.rowCol)
		for _, i := range pattern[top:] {
			s.rowCol = append(s.rowCol, int32(i))
			lnz[i]++
		}
	}
	s.rowCol = slices.Clone(s.rowCol) // drop append's spare capacity
	nz := len(s.rowCol)
	s.rowPtr[n] = nz
	if n > math.MaxInt32 || nz > math.MaxInt32 {
		return fmt.Errorf("matrix: SparseSPD of dimension %d with %d factor nonzeros exceeds the int32 row-pattern index", n, nz)
	}
	s.lp = make([]int, n+1)
	for k := 0; k < n; k++ {
		s.lp[k+1] = s.lp[k] + lnz[k]
		lnz[k] = 0
	}
	s.li = make([]int, nz)
	s.lx = make([]float64, nz)
	s.d = make([]float64, n)
	s.rowSlot = make([]int32, nz)
	for k := 0; k < n; k++ {
		for t := s.rowPtr[k]; t < s.rowPtr[k+1]; t++ {
			i := s.rowCol[t]
			slot := s.lp[i] + lnz[i]
			lnz[i]++
			s.li[slot] = k
			s.rowSlot[t] = int32(slot)
		}
	}
	return nil
}

// N returns the system dimension.
func (s *SparseSPD) N() int { return s.n }

// NNZ returns the stored nonzero count of the matrix pattern (upper
// triangle plus diagonal).
func (s *SparseSPD) NNZ() int { return len(s.rowIdx) }

// FactorNNZ returns the nonzero count of the factor L (strict lower
// triangle plus the n diagonal entries of D). FactorNNZ − NNZ is the
// fill-in introduced by elimination.
func (s *SparseSPD) FactorNNZ() int { return s.lp[s.n] + s.n }

// Reset zeroes the assembled coefficients, retaining the pattern.
func (s *SparseSPD) Reset() {
	for i := range s.values {
		s.values[i] = 0
	}
}

// DiagSlot returns the assembly slot of diagonal entry (i, i).
func (s *SparseSPD) DiagSlot(i int) int {
	// The diagonal is the last entry of its permuted column.
	return s.colPtr[s.iperm[i]+1] - 1
}

// PairSlot returns the assembly slot shared by the symmetric pair
// (i, j)/(j, i), or -1 when the pair is not part of the pattern.
func (s *SparseSPD) PairSlot(i, j int) int {
	if i < 0 || j < 0 || i >= s.n || j >= s.n || i == j {
		return -1
	}
	r, c := s.iperm[i], s.iperm[j]
	if r > c {
		r, c = c, r
	}
	lo, hi := s.colPtr[c], s.colPtr[c+1]
	k := lo + sort.SearchInts(s.rowIdx[lo:hi], r)
	if k < hi && s.rowIdx[k] == r {
		return k
	}
	return -1
}

// Add accumulates v into a slot previously resolved with DiagSlot or
// PairSlot.
func (s *SparseSPD) Add(slot int, v float64) { s.values[slot] += v }

// Factorize recomputes the numeric LDLᵀ factorization from the assembled
// coefficients. Up-looking, row by row: row k of L is a sparse triangular
// solve against the factor columns its precomputed pattern names, in
// elimination-tree order. No allocation. Returns ErrNotPositiveDefinite
// when a pivot is non-positive or non-finite.
func (s *SparseSPD) Factorize() error {
	y, li, lx, d := s.y, s.li, s.lx, s.d
	for k := 0; k < s.n; k++ {
		// Scatter column k of A.
		for p := s.colPtr[k]; p < s.colPtr[k+1]; p++ {
			y[s.rowIdx[p]] += s.values[p]
		}
		dk := y[k]
		y[k] = 0
		for t := s.rowPtr[k]; t < s.rowPtr[k+1]; t++ {
			i := s.rowCol[t]
			slot := int(s.rowSlot[t])
			yi := y[i]
			y[i] = 0
			for p := s.lp[i]; p < slot; p++ {
				y[li[p]] -= lx[p] * yi
			}
			lki := yi / d[i]
			dk -= lki * yi
			lx[slot] = lki
		}
		if !(dk > 0) { // catches dk <= 0 and NaN
			return ErrNotPositiveDefinite
		}
		d[k] = dk
	}
	return nil
}

// Solve solves A·x = b using the current factorization. dst and b must
// have length n; dst may alias b. No allocation.
func (s *SparseSPD) Solve(b, dst []float64) error {
	n := s.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("matrix: SparseSPD solve dimension mismatch: %d/%d vs %d", len(dst), len(b), n)
	}
	w := s.w
	for k := 0; k < n; k++ {
		w[k] = b[s.perm[k]]
	}
	// L·y = P·b (unit lower triangular).
	for k := 0; k < n; k++ {
		wk := w[k]
		for p := s.lp[k]; p < s.lp[k+1]; p++ {
			w[s.li[p]] -= s.lx[p] * wk
		}
	}
	// D·z = y.
	for k := 0; k < n; k++ {
		w[k] /= s.d[k]
	}
	// Lᵀ·(P·x) = z.
	for k := n - 1; k >= 0; k-- {
		wk := w[k]
		for p := s.lp[k]; p < s.lp[k+1]; p++ {
			wk -= s.lx[p] * w[s.li[p]]
		}
		w[k] = wk
	}
	for k := 0; k < n; k++ {
		dst[s.perm[k]] = w[k]
	}
	return nil
}
