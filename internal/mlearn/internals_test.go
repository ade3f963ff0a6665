package mlearn

import (
	"math"
	"math/rand"
	"testing"
)

// transform standardizes x into a fresh vector.
func (s *scaler) transform(x []float64) []float64 {
	out := make([]float64, len(x))
	s.transformInto(out, x)
	return out
}

func TestScaler(t *testing.T) {
	x := [][]float64{{1, 100}, {3, 300}, {5, 500}}
	s := fitScaler(x)
	// Transformed training data has zero mean per feature.
	var sums [2]float64
	for _, row := range x {
		tr := s.transform(row)
		sums[0] += tr[0]
		sums[1] += tr[1]
	}
	if math.Abs(sums[0]) > 1e-12 || math.Abs(sums[1]) > 1e-12 {
		t.Fatalf("transformed means = %v", sums)
	}
	// Unit variance per feature.
	var sq [2]float64
	for _, row := range x {
		tr := s.transform(row)
		sq[0] += tr[0] * tr[0]
		sq[1] += tr[1] * tr[1]
	}
	for f := 0; f < 2; f++ {
		if math.Abs(sq[f]/3-1) > 1e-9 {
			t.Fatalf("feature %d variance = %v", f, sq[f]/3)
		}
	}
}

func TestScalerConstantFeature(t *testing.T) {
	x := [][]float64{{7, 1}, {7, 2}, {7, 3}}
	s := fitScaler(x)
	tr := s.transform([]float64{7, 2})
	if tr[0] != 0 {
		t.Fatalf("constant feature transforms to %v, want 0", tr[0])
	}
	if math.IsNaN(tr[1]) || math.IsInf(tr[1], 0) {
		t.Fatalf("non-finite transform: %v", tr[1])
	}
}

func TestClassWeights(t *testing.T) {
	w := classWeights([]int{0, 0, 0, 1})
	// Each class contributes equally: 3·w0 == 1·w1 == n/2.
	if math.Abs(3*w[0]-2) > 1e-12 || math.Abs(w[1]-2) > 1e-12 {
		t.Fatalf("weights = %v", w)
	}
	w = classWeights([]int{0, 0})
	if w[1] != 0 {
		t.Fatalf("absent class weight = %v, want 0", w[1])
	}
}

func TestBinnerRespectsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	x := make([][]float64, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64() * 10}
	}
	b := newBinner(x)
	// Bin index must be monotone in the raw value.
	type pair struct {
		v   float64
		bin uint8
	}
	pairs := make([]pair, n)
	for i := range x {
		pairs[i] = pair{x[i][0], b.cols[0][i]}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if pairs[i].v < pairs[j].v && pairs[i].bin > pairs[j].bin {
				t.Fatalf("bin order violated: %v→%d vs %v→%d",
					pairs[i].v, pairs[i].bin, pairs[j].v, pairs[j].bin)
			}
		}
	}
	// Threshold semantics: value ≤ threshold(bin) ⟺ binOf(value) ≤ bin.
	for trial := 0; trial < 200; trial++ {
		v := rng.NormFloat64() * 10
		for bin := 0; bin < len(b.edges[0]); bin++ {
			thr := b.threshold(0, bin)
			goesLeft := v <= thr
			binOf := int(uint8(searchBin(b.edges[0], v)))
			if goesLeft != (binOf <= bin) {
				t.Fatalf("threshold semantics broken at v=%v bin=%d", v, bin)
			}
		}
	}
}

// searchBin mirrors the binner's index computation for the test.
func searchBin(edges []float64, v float64) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		mid := (lo + hi) / 2
		if edges[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func TestBinnerConstantFeature(t *testing.T) {
	x := [][]float64{{5}, {5}, {5}, {5}}
	b := newBinner(x)
	if len(b.edges[0]) > 1 {
		t.Fatalf("constant feature produced %d edges", len(b.edges[0]))
	}
	// A tree on a constant feature must fall back to a leaf, not crash.
	tree := NewDecisionTree(TreeConfig{})
	if err := tree.Fit(x, []int{0, 1, 0, 1}); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	p := tree.PredictProba([]float64{5})
	if p < 0 || p > 1 {
		t.Fatalf("proba = %v", p)
	}
}

func TestSigmoid(t *testing.T) {
	if sigmoid(0) != 0.5 {
		t.Fatalf("sigmoid(0) = %v", sigmoid(0))
	}
	if s := sigmoid(100); s <= 0.999 || s > 1 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := sigmoid(-100); s >= 0.001 || s < 0 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
	// Symmetry.
	for _, z := range []float64{0.1, 1, 5} {
		if math.Abs(sigmoid(z)+sigmoid(-z)-1) > 1e-12 {
			t.Fatalf("sigmoid asymmetric at %v", z)
		}
	}
}

func TestClippedLogit(t *testing.T) {
	if clippedLogit(0.5) != 0 {
		t.Fatalf("logit(0.5) = %v", clippedLogit(0.5))
	}
	// Clipping keeps extremes finite.
	if math.IsInf(clippedLogit(0), 0) || math.IsInf(clippedLogit(1), 0) {
		t.Fatal("clipping failed at the extremes")
	}
	if clippedLogit(0.9) <= 0 || clippedLogit(0.1) >= 0 {
		t.Fatal("logit signs wrong")
	}
}

func TestFitPlattProducesCalibratedSign(t *testing.T) {
	// Positive margins ↔ positive class: A must come out positive.
	margins := make([]float64, 200)
	y := make([]int, 200)
	rng := rand.New(rand.NewSource(2))
	for i := range margins {
		if i%2 == 0 {
			margins[i] = 1 + rng.NormFloat64()*0.3
			y[i] = 1
		} else {
			margins[i] = -1 + rng.NormFloat64()*0.3
		}
	}
	a, b := fitPlatt(margins, y)
	if a <= 0 {
		t.Fatalf("Platt slope = %v, want positive", a)
	}
	if p := sigmoid(a*2 + b); p < 0.7 {
		t.Fatalf("P(y=1 | margin=2) = %v, want high", p)
	}
	if p := sigmoid(a*(-2) + b); p > 0.3 {
		t.Fatalf("P(y=1 | margin=-2) = %v, want low", p)
	}
}
