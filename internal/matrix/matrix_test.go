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
	ch, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return ch.Solve(b)
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("dims = %dx%d, want 2x3", m.Rows(), m.Cols())
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
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone aliases original storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero did not clear elements")
	}
}

func TestNewDenseFrom(t *testing.T) {
	m, err := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("NewDenseFrom: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := NewDenseFrom([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged input should error")
	}
	if _, err := NewDenseFrom(nil); err == nil {
		t.Fatal("empty input should error")
	}
}

func TestMulVec(t *testing.T) {
	m, _ := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := m.MulVec([]float64{1, 1, 1}, nil)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v, want [6 15]", y)
	}
	dst := make([]float64, 2)
	y2 := m.MulVec([]float64{0, 1, 0}, dst)
	if &y2[0] != &dst[0] {
		t.Fatal("MulVec did not reuse dst")
	}
	if y2[0] != 2 || y2[1] != 5 {
		t.Fatalf("MulVec = %v, want [2 5]", y2)
	}
}

func TestTransposeMul(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	// aᵀ·a should be symmetric.
	ata := a.TransposeMul(a)
	want := [][]float64{{35, 44}, {44, 56}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if ata.At(i, j) != want[i][j] {
				t.Fatalf("AtA(%d,%d) = %v, want %v", i, j, ata.At(i, j), want[i][j])
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{
		{4, 1, 0},
		{1, 5, 2},
		{0, 2, 6},
	})
	x, err := solveSPD(a, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("solveSPD: %v", err)
	}
	// Verify A·x == b.
	b := a.MulVec(x, nil)
	for i, want := range []float64{1, 2, 3} {
		if !almostEqual(b[i], want, 1e-10) {
			t.Fatalf("residual at %d: got %v, want %v", i, b[i], want)
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := NewCholesky(a); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyNonSquare(t *testing.T) {
	a := NewDense(2, 3)
	if _, err := NewCholesky(a); err == nil {
		t.Fatal("non-square Cholesky should error")
	}
}

func TestLUSolve(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{
		{0, 2, 1}, // zero pivot forces row exchange
		{1, 1, 1},
		{2, 0, 3},
	})
	lu, err := NewLU(a)
	if err != nil {
		t.Fatalf("NewLU: %v", err)
	}
	x, err := lu.Solve([]float64{5, 6, 13})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	b := a.MulVec(x, nil)
	for i, want := range []float64{5, 6, 13} {
		if !almostEqual(b[i], want, 1e-10) {
			t.Fatalf("residual at %d: got %v, want %v", i, b[i], want)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a, _ := NewDenseFrom([][]float64{{1, 2}, {2, 4}})
	if _, err := NewLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
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
		a := m.TransposeMul(m)
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
		ax := a.MulVec(x, nil)
		for i := range b {
			if !almostEqual(ax[i], b[i], 1e-8) {
				t.Fatalf("trial %d: residual %v at %d", trial, ax[i]-b[i], i)
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
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 failed")
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Fatal("NormInf failed")
	}
	if Sum(a) != 6 || Mean(a) != 2 {
		t.Fatal("Sum/Mean failed")
	}
	if !almostEqual(Variance([]float64{1, 3}), 1, 1e-15) {
		t.Fatalf("Variance = %v, want 1", Variance([]float64{1, 3}))
	}
	if Variance([]float64{5}) != 0 || Mean(nil) != 0 || NormInf(nil) != 0 {
		t.Fatal("degenerate inputs mishandled")
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
