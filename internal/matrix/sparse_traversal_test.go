package matrix

import (
	"math"
	"math/rand"
	"testing"

	"github.com/aquascale/aquascale/internal/network"
)

// traversalLDL is the reference up-looking LDLᵀ that walks the
// elimination tree on every factorization (Davis' LDL): column k's
// pattern is collected as etree paths from the rows of A's column k,
// and each factor column grows one entry at a time. SparseSPD.Factorize
// must reproduce its operations in the same order from the row patterns
// it precomputes, so every bit of D, L and the solution agrees.
type traversalLDL struct {
	n               int
	parent, lp, li  []int
	flag, lnz, patt []int
	lx, d, y        []float64
}

func newTraversalLDL(s *SparseSPD) *traversalLDL {
	n := s.n
	o := &traversalLDL{
		n:      n,
		parent: make([]int, n),
		lp:     make([]int, n+1),
		flag:   make([]int, n),
		lnz:    make([]int, n),
		patt:   make([]int, n),
		d:      make([]float64, n),
		y:      make([]float64, n),
	}
	for k := 0; k < n; k++ {
		o.parent[k] = -1
		o.flag[k] = k
		for p := s.colPtr[k]; p < s.colPtr[k+1]; p++ {
			i := s.rowIdx[p]
			for ; o.flag[i] != k; i = o.parent[i] {
				if o.parent[i] == -1 {
					o.parent[i] = k
				}
				o.lnz[i]++
				o.flag[i] = k
			}
		}
	}
	for k := 0; k < n; k++ {
		o.lp[k+1] = o.lp[k] + o.lnz[k]
	}
	o.li = make([]int, o.lp[n])
	o.lx = make([]float64, o.lp[n])
	return o
}

// factorize runs the traversal factorization on s's assembled values.
func (o *traversalLDL) factorize(s *SparseSPD) error {
	n := o.n
	for k := 0; k < n; k++ {
		top := n
		o.flag[k] = k
		o.lnz[k] = 0
		for p := s.colPtr[k]; p < s.colPtr[k+1]; p++ {
			i := s.rowIdx[p]
			o.y[i] += s.values[p]
			plen := 0
			for ; o.flag[i] != k; i = o.parent[i] {
				o.patt[plen] = i
				plen++
				o.flag[i] = k
			}
			for plen > 0 {
				plen--
				top--
				o.patt[top] = o.patt[plen]
			}
		}
		dk := o.y[k]
		o.y[k] = 0
		for ; top < n; top++ {
			i := o.patt[top]
			yi := o.y[i]
			o.y[i] = 0
			p2 := o.lp[i] + o.lnz[i]
			for p := o.lp[i]; p < p2; p++ {
				o.y[o.li[p]] -= o.lx[p] * yi
			}
			lki := yi / o.d[i]
			dk -= lki * yi
			o.li[p2] = k
			o.lx[p2] = lki
			o.lnz[i]++
		}
		if !(dk > 0) {
			return ErrNotPositiveDefinite
		}
		o.d[k] = dk
	}
	return nil
}

// solve is SparseSPD.Solve against the reference factor.
func (o *traversalLDL) solve(s *SparseSPD, b []float64) []float64 {
	n := o.n
	w := make([]float64, n)
	for k := 0; k < n; k++ {
		w[k] = b[s.perm[k]]
	}
	for k := 0; k < n; k++ {
		wk := w[k]
		for p := o.lp[k]; p < o.lp[k+1]; p++ {
			w[o.li[p]] -= o.lx[p] * wk
		}
	}
	for k := 0; k < n; k++ {
		w[k] /= o.d[k]
	}
	for k := n - 1; k >= 0; k-- {
		wk := w[k]
		for p := o.lp[k]; p < o.lp[k+1]; p++ {
			wk -= o.lx[p] * w[o.li[p]]
		}
		w[k] = wk
	}
	x := make([]float64, n)
	for k := 0; k < n; k++ {
		x[s.perm[k]] = w[k]
	}
	return x
}

// poison fills every factor value with the same NaN so that entries a
// refused factorization never reached compare equal on both sides, and
// the first NaN pivot names the refused column.
func poison(lx, d []float64) {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001)
	for i := range lx {
		lx[i] = nan
	}
	for i := range d {
		d[i] = nan
	}
}

func firstNaN(d []float64) int {
	for i, v := range d {
		if math.IsNaN(v) {
			return i
		}
	}
	return len(d)
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkAgainstTraversal factorizes s as assembled with both the
// production code and the traversal reference and compares bits: the
// factor layout, L, D and the solution of a random right-hand side, or
// for a refused input the error and the column it was refused at.
func checkAgainstTraversal(t *testing.T, name string, s *SparseSPD, rng *rand.Rand) (refused bool) {
	t.Helper()
	o := newTraversalLDL(s)
	for k := range o.lp {
		if o.lp[k] != s.lp[k] {
			t.Fatalf("%s: factor column pointer %d = %d, reference %d", name, k, s.lp[k], o.lp[k])
		}
	}
	poison(s.lx, s.d)
	poison(o.lx, o.d)
	got := s.Factorize()
	want := o.factorize(s)
	if got != want {
		t.Fatalf("%s: Factorize error %v, reference %v", name, got, want)
	}
	if gk, wk := firstNaN(s.d), firstNaN(o.d); gk != wk {
		t.Fatalf("%s: factorization stopped at column %d, reference %d", name, gk, wk)
	}
	if i := sameBits(s.d, o.d); i >= 0 {
		t.Fatalf("%s: D[%d] bits differ: %v vs reference %v", name, i, s.d[i], o.d[i])
	}
	if i := sameBits(s.lx, o.lx); i >= 0 {
		t.Fatalf("%s: L value %d bits differ: %v vs reference %v", name, i, s.lx[i], o.lx[i])
	}
	for i := range s.y {
		if s.y[i] != 0 {
			t.Fatalf("%s: workspace y[%d] = %v left dirty", name, i, s.y[i])
		}
	}
	if got != nil {
		return true
	}
	for p := range o.li {
		if s.li[p] != o.li[p] {
			t.Fatalf("%s: L row index %d = %d, reference %d", name, p, s.li[p], o.li[p])
		}
	}
	b := make([]float64, s.n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, s.n)
	if err := s.Solve(b, x); err != nil {
		t.Fatal(err)
	}
	if i := sameBits(x, o.solve(s, b)); i >= 0 {
		t.Fatalf("%s: solution x[%d] bits differ", name, i)
	}
	return false
}

// fillSPD assembles diagonally dominant SPD coefficients with negative
// off-diagonals (the GGA head-system shape) onto s's pattern.
func fillSPD(rng *rand.Rand, s *SparseSPD, n int, pairs [][2]int) {
	s.Reset()
	rowSum := make([]float64, n)
	for _, pr := range pairs {
		if pr[0] == pr[1] {
			continue
		}
		v := -(0.1 + rng.Float64())
		s.Add(s.PairSlot(pr[0], pr[1]), v)
		rowSum[pr[0]] -= v
		rowSum[pr[1]] -= v
	}
	for i := 0; i < n; i++ {
		s.Add(s.DiagSlot(i), rowSum[i]+0.5*rng.Float64()+1e-3)
	}
}

// headPairs is the junction-to-junction coupling pattern the hydraulic
// solver builds for net: one pair per link joining two junctions.
func headPairs(net *network.Network) (int, [][2]int) {
	ord := make([]int, len(net.Nodes))
	nj := 0
	for i := range net.Nodes {
		ord[i] = -1
		if net.Nodes[i].Type == network.Junction {
			ord[i] = nj
			nj++
		}
	}
	var pairs [][2]int
	for i := range net.Links {
		f, to := ord[net.Links[i].From], ord[net.Links[i].To]
		if f >= 0 && to >= 0 {
			pairs = append(pairs, [2]int{f, to})
		}
	}
	return nj, pairs
}

// TestSparseSPDMatchesTraversal pins Factorize and Solve bit for bit to
// the tree-walking reference on random patterns and on the EPA-NET,
// WSSC-SUBNET and 32×32-grid head systems, repeatedly refactorizing the
// same system (as the Newton loop does). Indefinite inputs — a pivot
// driven negative at a chosen column, and off-diagonals too large for
// the diagonal — must be refused at the same column as the reference.
func TestSparseSPDMatchesTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type system struct {
		name  string
		n     int
		pairs [][2]int
	}
	var systems []system
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(80)
		systems = append(systems, system{"random", n, randomPattern(rng, n, rng.Intn(3*n+1))})
	}
	for _, net := range []*network.Network{
		network.BuildEPANet(),
		network.BuildWSSCSubnet(),
		network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32}),
	} {
		n, pairs := headPairs(net)
		systems = append(systems, system{net.Name, n, pairs})
	}
	refusals := 0
	for _, sys := range systems {
		s, err := NewSparseSPD(sys.n, sys.pairs)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		for rep := 0; rep < 3; rep++ {
			fillSPD(rng, s, sys.n, sys.pairs)
			if checkAgainstTraversal(t, sys.name, s, rng) {
				t.Fatalf("%s: diagonally dominant system refused", sys.name)
			}
		}
		// A pivot made negative at permuted column k refuses there.
		fillSPD(rng, s, sys.n, sys.pairs)
		k := rng.Intn(sys.n)
		s.Add(s.DiagSlot(s.perm[k]), -1e6)
		if !checkAgainstTraversal(t, sys.name+"/negative-pivot", s, rng) {
			t.Fatalf("%s: negative pivot accepted", sys.name)
		}
		if got := firstNaN(s.d); got > k {
			t.Fatalf("%s: negative pivot at column %d refused only at %d", sys.name, k, got)
		}
		refusals++
		// Off-diagonals outweighing the diagonal: indefinite somewhere
		// past the first column on most patterns.
		if len(sys.pairs) > 0 {
			s.Reset()
			for _, pr := range sys.pairs {
				if pr[0] != pr[1] {
					s.Add(s.PairSlot(pr[0], pr[1]), -(1 + rng.Float64()))
				}
			}
			for i := 0; i < sys.n; i++ {
				s.Add(s.DiagSlot(i), 0.5+rng.Float64())
			}
			if checkAgainstTraversal(t, sys.name+"/weak-diagonal", s, rng) {
				refusals++
			}
		}
		// The refused state must not leak into the next factorization.
		fillSPD(rng, s, sys.n, sys.pairs)
		if checkAgainstTraversal(t, sys.name+"/after-refusal", s, rng) {
			t.Fatalf("%s: system refused after an earlier refusal", sys.name)
		}
	}
	if refusals < len(systems)+10 {
		t.Fatalf("only %d refusals across %d systems: the indefinite cases lost their contrast", refusals, len(systems))
	}
}
