package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowwiseRefactorize is the row-by-row Cholesky–Crout loop the blocked
// Refactorize must reproduce bit for bit: one entry at a time, each sum
// in increasing k. It fills l (n×n, row-major) from a's lower triangle.
func rowwiseRefactorize(a *Dense, l []float64) error {
	n := a.rows
	for i := 0; i < n; i++ {
		ai, li := a.data[i*n:(i+1)*n], l[i*n:(i+1)*n]
		for j := 0; j <= i; j++ {
			lj := l[j*n : j*n+j]
			sum := ai[j]
			for k, v := range lj {
				sum -= li[k] * v
			}
			if i == j {
				if sum <= 0 {
					return ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(sum)
			} else {
				li[j] = sum / l[j*n+j]
			}
		}
	}
	return nil
}

// rowwiseSolve is the substitution SolveTo must reproduce bit for bit,
// updating x in place entry by entry.
func rowwiseSolve(l []float64, n int, x []float64) {
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= l[i*n+k] * x[k]
		}
		x[i] /= l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= l[k*n+i] * x[k]
		}
		x[i] /= l[i*n+i]
	}
}

// randomGram returns MᵀM + shift·I for a rows×n Gaussian M, with NaN in
// the strict upper triangle: Refactorize reads only the lower one. With
// dup, M's last column repeats its first, so MᵀM has rank n−1 and the
// shift alone keeps it positive definite.
func randomGram(rng *rand.Rand, n, rows int, shift float64, dup bool) *Dense {
	m := NewDense(rows, n)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	if dup && n > 1 {
		for r := 0; r < rows; r++ {
			m.data[r*n+n-1] = m.data[r*n]
		}
	}
	a := gram(m)
	for i := 0; i < n; i++ {
		a.data[i*n+i] += shift
		for j := i + 1; j < n; j++ {
			a.data[i*n+j] = math.NaN()
		}
	}
	return a
}

// TestCholeskyMatchesRowwise pins the blocked factorization and the
// local-accumulator solve to the row-wise oracles, bit for bit, at
// every n mod 4: well-conditioned and near-singular SPD matrices, and
// indefinite ones, which both kernels must refuse.
func TestCholeskyMatchesRowwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 63, 64, 65, 66, 131}
	var c Cholesky
	for _, n := range sizes {
		cases := map[string]*Dense{
			"spd": randomGram(rng, n, n+3, float64(n), false),
			// Rank n−1 plus a tiny shift: condition number ~1e12.
			"near-singular": randomGram(rng, n, n+3, 1e-9, true),
		}
		for name, a := range cases {
			want := make([]float64, n*n)
			if err := rowwiseRefactorize(a, want); err != nil {
				t.Fatalf("n=%d %s: oracle refused the matrix: %v", n, name, err)
			}
			if err := c.Refactorize(a); err != nil {
				t.Fatalf("n=%d %s: Refactorize: %v", n, name, err)
			}
			for i := range want {
				if math.Float64bits(c.l[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d %s: L[%d][%d] = %v, row-wise %v", n, name, i/n, i%n, c.l[i], want[i])
				}
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			wantX := append([]float64(nil), b...)
			rowwiseSolve(want, n, wantX)
			x := make([]float64, n)
			if err := c.SolveTo(x, b); err != nil {
				t.Fatalf("n=%d %s: SolveTo: %v", n, name, err)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) {
					t.Fatalf("n=%d %s: x[%d] = %v, row-wise %v", n, name, i, x[i], wantX[i])
				}
			}
		}

		// Indefinite: one negative pivot, in the first row, a middle row
		// and the last row, so it lands in a block and in the tail.
		for _, bad := range []int{0, n / 2, n - 1} {
			a := randomGram(rng, n, n+3, float64(n), false)
			a.data[bad*n+bad] = -1
			if err := rowwiseRefactorize(a, make([]float64, n*n)); err != ErrNotPositiveDefinite {
				t.Fatalf("n=%d pivot %d: oracle returned %v, want ErrNotPositiveDefinite", n, bad, err)
			}
			if err := c.Refactorize(a); err != ErrNotPositiveDefinite {
				t.Fatalf("n=%d pivot %d: Refactorize returned %v, want ErrNotPositiveDefinite", n, bad, err)
			}
		}
	}
}

// BenchmarkCholesky measures one Refactorize plus SolveTo at the ridge
// fit's normal-matrix sizes: k = 64 on the corpus-grid workload and
// k = 131 on EPA-NET at full coverage. It must not allocate.
func BenchmarkCholesky(b *testing.B) {
	for _, n := range []int{64, 131} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randomGram(rng, n, 2*n, 1e-3*float64(n), false)
			rhs := make([]float64, n)
			for i := range rhs {
				rhs[i] = rng.NormFloat64()
			}
			x := make([]float64, n)
			var c Cholesky
			b.ReportAllocs()
			if err := c.Refactorize(a); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Refactorize(a); err != nil {
					b.Fatal(err)
				}
				if err := c.SolveTo(x, rhs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
