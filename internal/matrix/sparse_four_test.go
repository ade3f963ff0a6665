package matrix

import (
	"math"
	"math/rand"
	"testing"

	"github.com/aquascale/aquascale/internal/network"
)

// TestFactorizeFourMatchesScalar pins every lane of FactorizeFour and
// SolveFour bit for bit to Factorize and Solve on that lane's
// coefficients alone: random patterns and the EPA-NET, WSSC-SUBNET and
// 32×32-grid head systems, with one lane at a time made indefinite
// (refused on that lane only) and aliased b/dst.
func TestFactorizeFourMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type system struct {
		name  string
		n     int
		pairs [][2]int
	}
	var systems []system
	for trial := 0; trial < 30; trial++ {
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
	for _, sys := range systems {
		s, err := NewSparseSPD(sys.n, sys.pairs)
		if err != nil {
			t.Fatalf("%s: %v", sys.name, err)
		}
		for rep := 0; rep < 6; rep++ {
			var vals, b, x [Lanes][]float64
			bad := -1
			if rep >= 2 {
				bad = rep - 2 // one indefinite lane per rep
			}
			for l := range vals {
				fillSPD(rng, s, sys.n, sys.pairs)
				if l == bad {
					s.Add(s.DiagSlot(s.perm[rng.Intn(sys.n)]), -1e6)
				}
				vals[l] = append([]float64(nil), s.Values()...)
				b[l] = make([]float64, sys.n)
				for i := range b[l] {
					b[l][i] = rng.NormFloat64()
				}
				x[l] = append([]float64(nil), b[l]...) // aliased in SolveFour
			}
			failed := s.FactorizeFour(&vals)
			if err := s.SolveFour(&x, &x); err != nil {
				t.Fatal(err)
			}
			for l := range vals {
				copy(s.Values(), vals[l])
				err := s.Factorize()
				if got := failed&(1<<l) != 0; got != (err != nil) {
					t.Fatalf("%s rep %d lane %d: lane refused %v, Factorize error %v", sys.name, rep, l, got, err)
				}
				if (l == bad) != (err != nil) {
					t.Fatalf("%s rep %d lane %d: Factorize error %v, indefinite lane %d", sys.name, rep, l, err, bad)
				}
				if err != nil {
					continue
				}
				for k := 0; k < sys.n; k++ {
					if math.Float64bits(s.four.d[k][l]) != math.Float64bits(s.d[k]) {
						t.Fatalf("%s rep %d lane %d: D[%d] bits differ", sys.name, rep, l, k)
					}
				}
				for p := range s.lx {
					if math.Float64bits(s.four.lx[p][l]) != math.Float64bits(s.lx[p]) {
						t.Fatalf("%s rep %d lane %d: L value %d bits differ", sys.name, rep, l, p)
					}
				}
				want := make([]float64, sys.n)
				if err := s.Solve(b[l], want); err != nil {
					t.Fatal(err)
				}
				if i := sameBits(x[l], want); i >= 0 {
					t.Fatalf("%s rep %d lane %d: x[%d] bits differ: %v vs %v", sys.name, rep, l, i, x[l][i], want[i])
				}
			}
			for i := range s.four.y {
				if s.four.y[i] != ([Lanes]float64{}) {
					t.Fatalf("%s: lane workspace y[%d] = %v left dirty", sys.name, i, s.four.y[i])
				}
			}
		}
	}
}

// TestFactorizeFourAllocationFree pins the four-lane factorize+solve to
// zero allocations once its lane state exists.
func TestFactorizeFourAllocationFree(t *testing.T) {
	n, pairs := gridPattern(32, 32)
	s, vals, b, x := fourLaneSystem(t, n, pairs)
	fn := func() {
		if failed := s.FactorizeFour(&vals); failed != 0 {
			t.Fatalf("lanes %04b refused", failed)
		}
		if err := s.SolveFour(&b, &x); err != nil {
			t.Fatal(err)
		}
	}
	fn() // first call allocates the lane state
	if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
		t.Fatalf("%v allocations per four-lane factorize+solve, want 0", allocs)
	}
}

// fourLaneSystem assembles four random diagonally dominant coefficient
// sets and right-hand sides on one pattern.
func fourLaneSystem(tb testing.TB, n int, pairs [][2]int) (*SparseSPD, [Lanes][]float64, [Lanes][]float64, [Lanes][]float64) {
	tb.Helper()
	s, err := NewSparseSPD(n, pairs)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var vals, b, x [Lanes][]float64
	for l := range vals {
		fillSPD(rng, s, n, pairs)
		vals[l] = append([]float64(nil), s.Values()...)
		b[l] = make([]float64, n)
		x[l] = make([]float64, n)
		for i := range b[l] {
			b[l][i] = rng.NormFloat64()
		}
	}
	return s, vals, b, x
}

// BenchmarkSolveSparseFour measures one four-lane refactorize+solve on
// the BenchmarkSolveSparse patterns: compare with four scalar rows.
func BenchmarkSolveSparseFour(b *testing.B) {
	for _, sz := range [][2]int{{13, 7}, {23, 13}, {32, 32}, {64, 64}} {
		n, pairs := gridPattern(sz[0], sz[1])
		b.Run("n="+itoa(n), func(b *testing.B) {
			s, vals, rhs, x := fourLaneSystem(b, n, pairs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if failed := s.FactorizeFour(&vals); failed != 0 {
					b.Fatalf("lanes %04b refused", failed)
				}
				if err := s.SolveFour(&rhs, &x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}
