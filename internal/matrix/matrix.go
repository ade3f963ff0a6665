// Package matrix provides the linear-algebra primitives used by the
// hydraulic solver (Global Gradient Algorithm) and the machine-learning
// package (ridge regression, logistic regression).
//
// The hydraulic head system is a sparse LDLᵀ with a fill-reducing
// reverse Cuthill-McKee ordering and a one-time symbolic factorization
// (SparseSPD, see sparse.go). The ridge fit factors its small dense
// normal equations with a reusable Cholesky. Both refactorize and solve
// without allocating, so a Newton loop or a column sweep can reuse one
// system across iterations. Dense storage is row-major throughout.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the matrix is not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("matrix: matrix not positive definite")

// Dense is a dense row-major matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the element at (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Zero resets all elements to zero, retaining the allocation.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Cholesky holds the lower-triangular Cholesky factor of a symmetric
// positive-definite matrix, A = L·Lᵀ. The zero value is ready for
// Refactorize.
type Cholesky struct {
	n int
	l []float64 // row-major lower triangle (full storage for simplicity)
}

// Refactorize recomputes the factorization for a new a, reusing the factor
// buffer whenever the dimension matches: after the first call no memory is
// allocated, which keeps repeated Newton-iteration factorizations off the
// garbage collector. Only the lower triangle of a is read. On error the
// factor is invalid and must be refactorized before the next SolveTo.
//
// Every entry is the row-major Cholesky–Crout recurrence
//
//	L[i][j] = (A[i][j] − Σ_{k<j} L[i][k]·L[j][k]) / L[j][j]
//
// with its sum taken in increasing k, so the factor is the same bits as
// a row-by-row loop. Rows go in blocks of four: a block's entries left
// of its 4×4 diagonal block need only finished rows, so they run as four
// independent subtract chains that share each load of row j instead of
// one latency-bound chain at a time. The diagonal block and the last
// n mod 4 rows take the plain row loop.
func (c *Cholesky) Refactorize(a *Dense) error {
	if a.rows != a.cols {
		return fmt.Errorf("matrix: Cholesky of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	if c.n != n || len(c.l) != n*n {
		c.n = n
		c.l = make([]float64, n*n)
	}
	l := c.l
	i := 0
	for ; i+4 <= n; i += 4 {
		a0, a1, a2, a3 := a.data[i*n:(i+1)*n], a.data[(i+1)*n:(i+2)*n], a.data[(i+2)*n:(i+3)*n], a.data[(i+3)*n:(i+4)*n]
		l0, l1, l2, l3 := l[i*n:(i+1)*n], l[(i+1)*n:(i+2)*n], l[(i+2)*n:(i+3)*n], l[(i+3)*n:(i+4)*n]
		for j := 0; j < i; j++ {
			lj := l[j*n : j*n+j]
			r0, r1, r2, r3 := l0[:len(lj)], l1[:len(lj)], l2[:len(lj)], l3[:len(lj)]
			s0, s1, s2, s3 := a0[j], a1[j], a2[j], a3[j]
			for k, v := range lj {
				s0 -= r0[k] * v
				s1 -= r1[k] * v
				s2 -= r2[k] * v
				s3 -= r3[k] * v
			}
			d := l[j*n+j]
			l0[j], l1[j], l2[j], l3[j] = s0/d, s1/d, s2/d, s3/d
		}
		for r := i; r < i+4; r++ {
			if err := c.factorRow(a, r, i); err != nil {
				return err
			}
		}
	}
	for ; i < n; i++ {
		if err := c.factorRow(a, i, 0); err != nil {
			return err
		}
	}
	return nil
}

// factorRow computes row i of the factor from column j0 through the
// diagonal; entries left of j0 must already be in place.
func (c *Cholesky) factorRow(a *Dense, i, j0 int) error {
	n, l := c.n, c.l
	ai, li := a.data[i*n:(i+1)*n], l[i*n:(i+1)*n]
	for j := j0; j <= i; j++ {
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
	return nil
}

// SolveTo solves A·x = b into dst without allocating. dst and b must have
// length n; dst may alias b.
func (c *Cholesky) SolveTo(dst, b []float64) error {
	if len(b) != c.n || len(dst) != c.n {
		return fmt.Errorf("matrix: Cholesky solve dimension mismatch: %d/%d vs %d", len(dst), len(b), c.n)
	}
	n, l := c.n, c.l
	x := dst
	copy(x, b)
	// Forward substitution: L·y = b.
	for i := 0; i < n; i++ {
		s := x[i]
		for k, v := range l[i*n : i*n+i] {
			s -= v * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	// Back substitution: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return nil
}
