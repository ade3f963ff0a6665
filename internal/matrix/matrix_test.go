package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// solveSPD factorizes the symmetric positive-definite matrix a and
// solves a·x = b: the single-shot reference solve of these tests.
func solveSPD(a *Dense, b []float64) ([]float64, error) {
	var ch Cholesky
	if err := ch.Refactorize(a); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	return x, ch.SolveTo(x, b)
}

// denseOf builds a matrix from equal-length rows.
func denseOf(rows ...[]float64) *Dense {
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

// gram returns mᵀ·m, the symmetric positive-semidefinite test matrix
// the Cholesky and sparse tests shift onto the positive-definite side.
func gram(m *Dense) *Dense {
	out := NewDense(m.cols, m.cols)
	for k := 0; k < m.rows; k++ {
		mr := m.Row(k)
		for i, mv := range mr {
			if mv == 0 {
				continue
			}
			or := out.Row(i)
			for j, bv := range mr {
				or[j] += mv * bv
			}
		}
	}
	return out
}

// residual returns a·x − b.
func residual(a *Dense, x, b []float64) []float64 {
	r := make([]float64, len(b))
	for i := range r {
		r[i] = Dot(a.Row(i), x) - b[i]
	}
	return r
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", m.Rows())
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2) = %v, want 4.5", got)
	}
	m.Add(1, 2, 0.5)
	if got := m.At(1, 2); got != 5.0 {
		t.Fatalf("after Add, At(1,2) = %v, want 5.0", got)
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5.0 {
		t.Fatalf("Row(1) = %v", row)
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero did not clear elements")
	}
}

func TestCholeskySolve(t *testing.T) {
	a := denseOf(
		[]float64{4, 1, 0},
		[]float64{1, 5, 2},
		[]float64{0, 2, 6},
	)
	b := []float64{1, 2, 3}
	x, err := solveSPD(a, b)
	if err != nil {
		t.Fatalf("solveSPD: %v", err)
	}
	// Verify A·x == b.
	for i, r := range residual(a, x, b) {
		if !almostEqual(r, 0, 1e-10) {
			t.Fatalf("residual at %d: %v", i, r)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := denseOf([]float64{1, 2}, []float64{2, 1}) // eigenvalues 3, -1
	var ch Cholesky
	if err := ch.Refactorize(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	a := NewDense(2, 3)
	var ch Cholesky
	if err := ch.Refactorize(a); err == nil {
		t.Fatal("non-square Cholesky should error")
	}
}

// TestCholeskyRandomSPD checks the property A·Solve(A, b) == b for random
// SPD matrices A = MᵀM + n·I.
func TestCholeskyRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(30)
		m := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, rng.NormFloat64())
			}
		}
		a := gram(m)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)) // guarantee positive definiteness
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solveSPD(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, r := range residual(a, x, b) {
			if !almostEqual(r, 0, 1e-8) {
				t.Fatalf("trial %d: residual %v at %d", trial, r, i)
			}
		}
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v, want 32", Dot(a, b))
	}
	y := Clone(b)
	AxpY(2, a, y)
	if y[0] != 6 || y[2] != 12 {
		t.Fatalf("AxpY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 3 {
		t.Fatalf("Scale = %v", y)
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		half := len(raw) / 2
		a, b := raw[:half], raw[half:half*2]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true // skip pathological inputs
			}
		}
		d1 := Dot(a, b)
		d2 := Dot(b, a)
		return almostEqual(d1, d2, 1e-6*(1+math.Abs(d1)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
