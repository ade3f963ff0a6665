package mlearn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/aquascale/aquascale/internal/matrix"
)

// rowwiseRidge is the reference ridge fit: the weighted normal equations
// built by a row-by-row rank-1 update over the row-major standardized
// rows, skipping zero entries, then mirrored, ridged and solved by
// Cholesky. It returns the weights and bias.
func rowwiseRidge(t *testing.T, x [][]float64, y []int, lambda float64) ([]float64, float64) {
	t.Helper()
	_, xs := Prepare(x).standardized()
	cw := classWeights(y)
	d := len(x[0])
	cols := d + 1
	a := matrix.NewDense(cols, cols)
	b := make([]float64, cols)
	row := make([]float64, cols)
	for i, xi := range xs {
		copy(row, xi)
		row[d] = 1
		w := cw[y[i]]
		yi := float64(y[i])
		for p := 0; p < cols; p++ {
			if row[p] == 0 {
				continue
			}
			wp := w * row[p]
			for q := p; q < cols; q++ {
				a.Add(p, q, wp*row[q])
			}
			b[p] += wp * yi
		}
	}
	for p := 0; p < cols; p++ {
		for q := p + 1; q < cols; q++ {
			a.Set(q, p, a.At(p, q))
		}
		a.Add(p, p, lambda*float64(len(xs)))
	}
	var ch matrix.Cholesky
	if err := ch.Refactorize(a); err != nil {
		t.Fatalf("reference factor: %v", err)
	}
	beta := make([]float64, cols)
	if err := ch.SolveTo(beta, b); err != nil {
		t.Fatalf("reference solve: %v", err)
	}
	return beta[:d], beta[d]
}

// ridgeColumn fills column j of x (n rows) with one of the value
// patterns the Gram-based fit must agree with the reference through.
func ridgeColumn(x [][]float64, j int, kind string, rng *rand.Rand) {
	for i, row := range x {
		switch kind {
		case "gauss":
			row[j] = rng.NormFloat64() * 3
		case "zero": // standardizes to exact +0
			row[j] = 0
		case "signed-zero": // mean +0, so the -0 entries standardize to -0
			row[j] = math.Copysign(0, float64(i%2)-0.5)
		case "constant": // mean need not round back to 0.1
			row[j] = 0.1
		case "sparse": // symmetric, so the zeros standardize to exact 0
			row[j] = float64(rng.Intn(3) - 1)
		default:
			panic(kind)
		}
	}
}

// ridgeLabels returns n labels of one of the degenerate or mixed kinds:
// positives the minority ("minority-1", about one row in eight) or the
// majority ("minority-0"), exactly tied counts (odd n gets one extra
// negative, so the positives stay the minority), or a single class.
func ridgeLabels(n int, kind string, rng *rand.Rand) []int {
	y := make([]int, n)
	switch kind {
	case "all-0":
	case "all-1":
		for i := range y {
			y[i] = 1
		}
	case "minority-1", "minority-0":
		for i := range y {
			if rng.Intn(8) == 0 {
				y[i] = 1
			}
		}
		if kind == "minority-0" {
			for i := range y {
				y[i] = 1 - y[i]
			}
		}
	case "tied":
		for i, j := range rng.Perm(n) {
			if j < n/2 {
				y[i] = 1
			}
		}
	default:
		panic(kind)
	}
	return y
}

// ridgeTol bounds how far the Gram-based fit may sit from the row-wise
// reference: |Δβⱼ| ≤ ridgeTol·max(1, ‖β‖∞) for every weight and the
// bias. The two assemble XᵀWX in different float orders (one shared G
// scaled by the majority weight plus a minority correction, against a
// weighted sum per row), so they agree to rounding, not to the bit.
const ridgeTol = 1e-10

// TestLinearFitMatchesRowwiseReference checks the Gram-based ridge fit
// against the row-wise reference within ridgeTol: widths whose bias-
// augmented size (d+1) mod 4 is 0, 1, 2 and 3 (every tail of the Gram
// kernel's four-column tile), a single row, exact-zero, signed-zero and
// constant features, sparse columns, more rows than one Gram block, and
// labels whose minority is the positives, the negatives, neither (tied),
// or empty (all-0 and all-1, a zero class weight). A randomized sweep
// mixes them.
func TestLinearFitMatchesRowwiseReference(t *testing.T) {
	columnKinds := []string{"gauss", "zero", "signed-zero", "constant", "sparse"}
	labelKinds := []string{"minority-1", "minority-0", "tied", "all-0", "all-1"}
	type ridgeCase struct {
		name   string
		n, d   int
		cols   []string // cycled over the features
		labels string
	}
	var cases []ridgeCase
	for _, d := range []int{3, 4, 5, 6, 63} {
		for _, labels := range labelKinds {
			cases = append(cases, ridgeCase{fmt.Sprintf("d=%d/%s", d, labels), 40, d, columnKinds, labels})
		}
	}
	for _, labels := range labelKinds {
		cases = append(cases, ridgeCase{"n=1/" + labels, 1, 5, []string{"gauss"}, labels})
		// Two full Gram blocks of gramRows rows and a partial third.
		cases = append(cases, ridgeCase{"n=600/" + labels, 600, 10, columnKinds, labels})
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		cols := make([]string, 1+rng.Intn(4))
		for i := range cols {
			cols[i] = columnKinds[rng.Intn(len(columnKinds))]
		}
		cases = append(cases, ridgeCase{fmt.Sprintf("random-%d", trial), 1 + rng.Intn(60), 1 + rng.Intn(13),
			cols, labelKinds[rng.Intn(len(labelKinds))]})
	}

	worst := 0.0
	for _, tc := range cases {
		x := make([][]float64, tc.n)
		for i := range x {
			x[i] = make([]float64, tc.d)
		}
		for j := 0; j < tc.d; j++ {
			ridgeColumn(x, j, tc.cols[j%len(tc.cols)], rng)
		}
		y := ridgeLabels(tc.n, tc.labels, rng)

		m := NewLinearRegression(LinearConfig{})
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s: Fit: %v", tc.name, err)
		}
		wantW, wantBias := rowwiseRidge(t, x, y, m.cfg.Lambda)
		got := append(append([]float64(nil), m.w...), m.bias)
		want := append(append([]float64(nil), wantW...), wantBias)
		scale := 1.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for j := range want {
			diff := math.Abs(got[j]-want[j]) / scale
			worst = math.Max(worst, diff)
			if !(diff <= ridgeTol) {
				t.Fatalf("%s: β[%d] = %v, reference %v (relative gap %.3g > %g)", tc.name, j, got[j], want[j], diff, ridgeTol)
			}
		}
	}
	t.Logf("%d cases, worst relative gap %.3g", len(cases), worst)
}
