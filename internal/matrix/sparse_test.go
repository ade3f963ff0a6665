package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// randomPattern returns a connected random sparsity pattern on n vertices:
// a path (guaranteeing connectivity) plus extra random edges.
func randomPattern(rng *rand.Rand, n, extra int) [][2]int {
	var pairs [][2]int
	for i := 1; i < n; i++ {
		pairs = append(pairs, [2]int{i - 1, i})
	}
	for k := 0; k < extra; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			pairs = append(pairs, [2]int{i, j})
		}
	}
	return pairs
}

// assemble fills sys and a dense reference with the same diagonally
// dominant SPD coefficients: negative off-diagonals (the hydraulic GGA
// shape) and diagonals exceeding the absolute row sums.
func assemble(rng *rand.Rand, sys SPDSystem, ref *Dense, n int, pairs [][2]int) {
	sys.Reset()
	ref.Zero()
	rowSum := make([]float64, n)
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		v := -(0.1 + rng.Float64())
		sys.Add(sys.PairSlot(i, j), v)
		ref.Add(i, j, v)
		ref.Add(j, i, v)
		rowSum[i] += -v
		rowSum[j] += -v
	}
	for i := 0; i < n; i++ {
		v := rowSum[i] + 0.5 + rng.Float64()
		sys.Add(sys.DiagSlot(i), v)
		ref.Add(i, i, v)
	}
}

// TestSparseMatchesDenseRandom is the backend property test: on random
// connected SPD systems the sparse and dense SPDSystem solutions agree
// with each other and with the reference dense solve to 1e-10.
func TestSparseMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		pairs := randomPattern(rng, n, rng.Intn(2*n))
		sp, err := NewSparseSPD(n, pairs)
		if err != nil {
			t.Fatalf("trial %d: NewSparseSPD: %v", trial, err)
		}
		de, err := NewDenseSPD(n)
		if err != nil {
			t.Fatalf("trial %d: NewDenseSPD: %v", trial, err)
		}
		ref := NewDense(n, n)

		// Assemble identical coefficients into all three via one value
		// stream per system (same seed → same values).
		valueSeed := rng.Int63()
		assemble(rand.New(rand.NewSource(valueSeed)), sp, ref, n, pairs)
		ref2 := NewDense(n, n)
		assemble(rand.New(rand.NewSource(valueSeed)), de, ref2, n, pairs)

		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := solveSPD(ref, b)
		if err != nil {
			t.Fatalf("trial %d: reference solve: %v", trial, err)
		}
		for name, sys := range map[string]SPDSystem{"sparse": sp, "dense": de} {
			if err := sys.Factorize(); err != nil {
				t.Fatalf("trial %d: %s Factorize: %v", trial, name, err)
			}
			x := make([]float64, n)
			if err := sys.Solve(b, x); err != nil {
				t.Fatalf("trial %d: %s Solve: %v", trial, name, err)
			}
			for i := range x {
				if math.Abs(x[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
					t.Fatalf("trial %d: %s x[%d] = %v, want %v", trial, name, i, x[i], want[i])
				}
			}
		}
	}
}

// TestSparseRefactorizeReuses checks that a second assembly+factorization
// on the same pattern produces correct results (the Newton-loop usage).
func TestSparseRefactorizeReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 40
	pairs := randomPattern(rng, n, n)
	sp, err := NewSparseSPD(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewDense(n, n)
	b := make([]float64, n)
	for round := 0; round < 3; round++ {
		assemble(rng, sp, ref, n, pairs)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		if err := sp.Factorize(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		x := make([]float64, n)
		if err := sp.Solve(b, x); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		want, err := solveSPD(ref, b)
		if err != nil {
			t.Fatalf("round %d: reference: %v", round, err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("round %d: x[%d] = %v, want %v", round, i, x[i], want[i])
			}
		}
	}
}

// TestRCMPermutationRoundTrip checks that the ordering is a genuine
// permutation covering every vertex (including disconnected components)
// and that InversePermutation inverts it.
func TestRCMPermutationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(50)
		adj := make([][]int, n)
		for k := 0; k < n; k++ { // random edges; components may split
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
		perm := ReverseCuthillMcKee(adj)
		if len(perm) != n {
			t.Fatalf("trial %d: len(perm) = %d, want %d", trial, len(perm), n)
		}
		seen := make([]bool, n)
		for _, v := range perm {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("trial %d: perm %v is not a permutation", trial, perm)
			}
			seen[v] = true
		}
		iperm := InversePermutation(perm)
		for k, v := range perm {
			if iperm[v] != k {
				t.Fatalf("trial %d: iperm[perm[%d]] = %d", trial, k, iperm[v])
			}
		}
	}
}

// TestRCMDeterministic pins that the ordering depends only on the pattern.
func TestRCMDeterministic(t *testing.T) {
	adj := [][]int{{1, 2}, {0, 3}, {0, 3}, {1, 2, 4}, {3}}
	p1 := ReverseCuthillMcKee(adj)
	p2 := ReverseCuthillMcKee(adj)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("orders differ: %v vs %v", p1, p2)
		}
	}
}

func TestSparseSlots(t *testing.T) {
	sp, err := NewSparseSPD(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {1, 0}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric access and duplicate pairs resolve to one slot.
	if sp.PairSlot(0, 1) != sp.PairSlot(1, 0) {
		t.Fatal("PairSlot not symmetric")
	}
	if sp.PairSlot(0, 1) < 0 || sp.PairSlot(1, 2) < 0 {
		t.Fatal("pattern pair missing")
	}
	if sp.PairSlot(0, 3) != -1 {
		t.Fatal("absent pair should resolve to -1")
	}
	if sp.PairSlot(2, 2) != -1 {
		t.Fatal("diagonal must use DiagSlot")
	}
	slots := map[int]bool{}
	for i := 0; i < 4; i++ {
		s := sp.DiagSlot(i)
		if s < 0 || s >= sp.NNZ() || slots[s] {
			t.Fatalf("DiagSlot(%d) = %d invalid or duplicated", i, s)
		}
		slots[s] = true
	}
	if sp.NNZ() != 4+3 { // 4 diagonals + 3 unique off-diagonal pairs
		t.Fatalf("NNZ = %d, want 7", sp.NNZ())
	}
	if sp.FactorNNZ() < sp.NNZ() {
		t.Fatalf("FactorNNZ %d < NNZ %d", sp.FactorNNZ(), sp.NNZ())
	}
}

// TestSparsePathNoFill: a path graph is tridiagonal; RCM keeps it banded,
// so elimination introduces no fill at all.
func TestSparsePathNoFill(t *testing.T) {
	n := 50
	sp, err := NewSparseSPD(n, randomPattern(rand.New(rand.NewSource(1)), n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if sp.FactorNNZ() != sp.NNZ() {
		t.Fatalf("path graph fill: FactorNNZ %d != NNZ %d", sp.FactorNNZ(), sp.NNZ())
	}
}

func TestSparseNotPositiveDefinite(t *testing.T) {
	sp, err := NewSparseSPD(2, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	sp.Add(sp.DiagSlot(0), 1)
	sp.Add(sp.DiagSlot(1), 1)
	sp.Add(sp.PairSlot(0, 1), 2) // eigenvalues 3, -1
	if err := sp.Factorize(); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestSparseBadInputs(t *testing.T) {
	if _, err := NewSparseSPD(0, nil); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := NewSparseSPD(3, [][2]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range pair should error")
	}
	sp, _ := NewSparseSPD(2, [][2]int{{0, 1}})
	if err := sp.Solve(make([]float64, 3), make([]float64, 2)); err == nil {
		t.Fatal("dimension mismatch should error")
	}
}

func TestCholeskyRefactorizeMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var c Cholesky
	for trial := 0; trial < 5; trial++ {
		n := 5 + rng.Intn(20)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		a := gram(m)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		if err := c.Refactorize(a); err != nil {
			t.Fatalf("trial %d: Refactorize: %v", trial, err)
		}
		var fresh Cholesky
		if err := fresh.Refactorize(a); err != nil {
			t.Fatalf("trial %d: fresh Refactorize: %v", trial, err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		if err := c.SolveTo(x, b); err != nil {
			t.Fatalf("trial %d: SolveTo: %v", trial, err)
		}
		want := make([]float64, n)
		if err := fresh.SolveTo(want, b); err != nil {
			t.Fatalf("trial %d: fresh SolveTo: %v", trial, err)
		}
		for i := range x {
			if x[i] != want[i] {
				t.Fatalf("trial %d: reused factor diverges at %d: %v vs %v", trial, i, x[i], want[i])
			}
		}
	}
}

// allocSystem prepares a factorize/solve closure for allocation counting.
func allocSystem(t *testing.T, sys SPDSystem, n int, pairs [][2]int) func() {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	ref := NewDense(n, n)
	assemble(rng, sys, ref, n, pairs)
	b := make([]float64, n)
	x := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return func() {
		if err := sys.Factorize(); err != nil {
			t.Fatal(err)
		}
		if err := sys.Solve(b, x); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSPDSystemsAllocationFree verifies the per-iteration contract: once a
// system is constructed, refactorize + solve allocate nothing.
func TestSPDSystemsAllocationFree(t *testing.T) {
	n := 64
	pairs := randomPattern(rand.New(rand.NewSource(2)), n, n)
	sp, err := NewSparseSPD(n, pairs)
	if err != nil {
		t.Fatal(err)
	}
	de, err := NewDenseSPD(n)
	if err != nil {
		t.Fatal(err)
	}
	for name, sys := range map[string]SPDSystem{"sparse": sp, "dense": de} {
		fn := allocSystem(t, sys, n, pairs)
		fn() // warm up (dense factor buffer allocates on first use)
		if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
			t.Fatalf("%s: %v allocations per factorize+solve, want 0", name, allocs)
		}
	}
}
