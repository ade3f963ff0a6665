package mlearn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// blobs generates a linearly separable 2-class problem with the positive
// class at fraction posFrac.
func blobs(rng *rand.Rand, n int, posFrac float64) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < posFrac {
			y[i] = 1
			x[i] = []float64{2 + rng.NormFloat64()*0.7, 2 + rng.NormFloat64()*0.7}
		} else {
			y[i] = 0
			x[i] = []float64{-1 + rng.NormFloat64()*0.7, -1 + rng.NormFloat64()*0.7}
		}
	}
	return x, y
}

// xorData generates the XOR problem no linear model can solve.
func xorData(rng *rand.Rand, n int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x[i] = []float64{a, b}
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	return x, y
}

func accuracy(c Classifier, x [][]float64, y []int) float64 {
	correct := 0
	for i := range x {
		if Predict(c, x[i]) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(x))
}

func makeAll(seed int64) map[string]Classifier {
	return map[string]Classifier{
		"linear":     NewLinearRegression(LinearConfig{}),
		"logistic":   NewLogisticRegression(LogisticConfig{}),
		"tree":       NewDecisionTree(TreeConfig{}),
		"rf":         NewRandomForest(RFConfig{Seed: seed}),
		"gb":         NewGradientBoosting(GBConfig{Seed: seed}),
		"svm":        NewSVM(SVMConfig{Seed: seed}),
		"hybrid-rsl": NewHybridRSL(HybridConfig{Seed: seed}),
	}
}

func TestAllClassifiersSeparableBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trX, trY := blobs(rng, 300, 0.5)
	teX, teY := blobs(rng, 200, 0.5)
	for name, c := range makeAll(7) {
		t.Run(name, func(t *testing.T) {
			if err := c.Fit(trX, trY); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			if acc := accuracy(c, teX, teY); acc < 0.95 {
				t.Fatalf("accuracy = %v, want ≥ 0.95", acc)
			}
		})
	}
}

func TestAllClassifiersImbalanced(t *testing.T) {
	// 5% positives: class weighting must preserve recall.
	rng := rand.New(rand.NewSource(2))
	trX, trY := blobs(rng, 600, 0.05)
	teX, teY := blobs(rng, 300, 0.05)
	for name, c := range makeAll(9) {
		t.Run(name, func(t *testing.T) {
			if err := c.Fit(trX, trY); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			preds := make([]int, len(teX))
			for i := range teX {
				preds[i] = Predict(c, teX[i])
			}
			cm := Confusion(preds, teY)
			if cm.Recall() < 0.8 {
				t.Fatalf("recall = %v, want ≥ 0.8 (TP=%d FN=%d)", cm.Recall(), cm.TP, cm.FN)
			}
		})
	}
}

func TestNonlinearModelsSolveXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	trX, trY := xorData(rng, 600)
	teX, teY := xorData(rng, 300)
	nonlinear := map[string]Classifier{
		"tree": NewDecisionTree(TreeConfig{MaxDepth: 8}),
		"rf":   NewRandomForest(RFConfig{Seed: 5, Trees: 40}),
		"gb":   NewGradientBoosting(GBConfig{Seed: 5, Rounds: 80}),
	}
	for name, c := range nonlinear {
		t.Run(name, func(t *testing.T) {
			if err := c.Fit(trX, trY); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			if acc := accuracy(c, teX, teY); acc < 0.9 {
				t.Fatalf("accuracy = %v, want ≥ 0.9", acc)
			}
		})
	}
	// Sanity: linear SVM cannot solve XOR (validates the test itself).
	svm := NewSVM(SVMConfig{Seed: 5})
	if err := svm.Fit(trX, trY); err != nil {
		t.Fatalf("svm fit: %v", err)
	}
	if acc := accuracy(svm, teX, teY); acc > 0.75 {
		t.Fatalf("linear SVM accuracy %v on XOR is implausibly high", acc)
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	trX, trY := blobs(rng, 200, 0.3)
	for name, c := range makeAll(11) {
		if err := c.Fit(trX, trY); err != nil {
			t.Fatalf("%s Fit: %v", name, err)
		}
		for trial := 0; trial < 200; trial++ {
			x := []float64{rng.NormFloat64() * 5, rng.NormFloat64() * 5}
			p := c.PredictProba(x)
			if math.IsNaN(p) || p < 0 || p > 1 {
				t.Fatalf("%s: proba %v outside [0,1]", name, p)
			}
		}
	}
}

func TestProbabilityOrdering(t *testing.T) {
	// Deep-positive points should score higher than deep-negative points.
	rng := rand.New(rand.NewSource(5))
	trX, trY := blobs(rng, 300, 0.5)
	pos := []float64{2.5, 2.5}
	neg := []float64{-1.5, -1.5}
	for name, c := range makeAll(13) {
		if err := c.Fit(trX, trY); err != nil {
			t.Fatalf("%s Fit: %v", name, err)
		}
		if pp, pn := c.PredictProba(pos), c.PredictProba(neg); pp <= pn {
			t.Fatalf("%s: P(pos)=%v ≤ P(neg)=%v", name, pp, pn)
		}
	}
}

func TestFitValidation(t *testing.T) {
	cases := []struct {
		name string
		x    [][]float64
		y    []int
	}{
		{"empty", nil, nil},
		{"mismatch", [][]float64{{1}}, []int{0, 1}},
		{"ragged", [][]float64{{1, 2}, {3}}, []int{0, 1}},
		{"zero width", [][]float64{{}}, []int{0}},
		{"bad label", [][]float64{{1}}, []int{2}},
	}
	for name, c := range makeAll(1) {
		for _, tc := range cases {
			if err := c.Fit(tc.x, tc.y); err == nil {
				t.Fatalf("%s: Fit(%s) should error", name, tc.name)
			}
		}
	}
}

// TestFitRefusesNonFiniteFeatures: a NaN or ±Inf anywhere in X fails
// every technique's Fit, MultiOutput.Fit and FitColumns with
// ErrNonFiniteFeature naming the cell, before any model is fitted.
func TestFitRefusesNonFiniteFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x, y := blobs(rng, 40, 0.3)
		x[17][1] = bad
		where := "row 17, column 1"
		check := func(who string, err error) {
			t.Helper()
			if !errors.Is(err, ErrNonFiniteFeature) || !strings.Contains(err.Error(), where) {
				t.Fatalf("%s with %v: err = %v, want ErrNonFiniteFeature at %s", who, bad, err, where)
			}
		}
		for name, c := range makeAll(1) {
			check(name, c.Fit(x, y))
		}
		yy := make([][]int, len(y))
		for i, v := range y {
			yy[i] = []int{v, 1 - v}
		}
		for _, name := range Names() {
			check("MultiOutput/"+name, NewMultiOutput(namedFactory(t, name), 1).Fit(x, yy))
		}
		models := make([]Classifier, 2)
		column := func(v int, dst []int) { copy(dst, y) }
		check("FitColumns", FitColumns(context.Background(), Prepare(x), namedFactory(t, "linear"), 1, 0, 2, column, models))
		if models[0] != nil || models[1] != nil {
			t.Fatal("FitColumns fitted a column over a non-finite matrix")
		}
	}
}

func TestUnfittedPredicts(t *testing.T) {
	for name, c := range makeAll(1) {
		if p := c.PredictProba([]float64{1, 2}); p != 0 {
			t.Fatalf("%s: unfitted proba = %v, want 0", name, p)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	trX, trY := blobs(rng, 150, 0.4)
	probe := []float64{0.3, 0.7}
	for _, name := range []string{"rf", "gb", "svm", "hybrid-rsl"} {
		a, err := NewByName(name, 99)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := NewByName(name, 99)
		if err := a.Fit(trX, trY); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := b.Fit(trX, trY); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pa, pb := a.PredictProba(probe), b.PredictProba(probe); pa != pb {
			t.Fatalf("%s: same seed differs: %v vs %v", name, pa, pb)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"gb", "hybrid-rsl", "linear", "logistic", "rf", "svm"}
	for _, w := range want {
		found := false
		for _, n := range names {
			if n == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %q (have %v)", w, names)
		}
	}
	if _, err := NewByName("nope", 0); err == nil {
		t.Fatal("unknown name should error")
	}
	Register("custom", func(seed int64) Classifier { return NewDecisionTree(TreeConfig{}) })
	c, err := NewByName("custom", 0)
	if err != nil || c == nil {
		t.Fatalf("custom registration failed: %v", err)
	}
}

func TestRandomForestOOB(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trX, trY := blobs(rng, 200, 0.5)
	rf := NewRandomForest(RFConfig{Seed: 3, Trees: 30})
	if err := rf.Fit(trX, trY); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	covered, correct := 0, 0
	for i := range trX {
		p, ok := rf.OOBProba(i)
		if !ok {
			continue
		}
		covered++
		pred := 0
		if p > 0.5 {
			pred = 1
		}
		if pred == trY[i] {
			correct++
		}
	}
	if covered < len(trX)*8/10 {
		t.Fatalf("OOB coverage %d/%d too low", covered, len(trX))
	}
	if acc := float64(correct) / float64(covered); acc < 0.9 {
		t.Fatalf("OOB accuracy = %v", acc)
	}
	if _, ok := rf.OOBProba(-1); ok {
		t.Fatal("negative index should not have OOB")
	}
	if _, ok := rf.OOBProba(99999); ok {
		t.Fatal("out-of-range index should not have OOB")
	}
}

func TestSVMMargin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	trX, trY := blobs(rng, 200, 0.5)
	svm := NewSVM(SVMConfig{Seed: 1})
	if err := svm.Fit(trX, trY); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if m := svm.Margin([]float64{2.5, 2.5}); m <= 0 {
		t.Fatalf("positive-side margin = %v", m)
	}
	if m := svm.Margin([]float64{-1.5, -1.5}); m >= 0 {
		t.Fatalf("negative-side margin = %v", m)
	}
	unfitted := NewSVM(SVMConfig{})
	if unfitted.Margin([]float64{1}) != 0 {
		t.Fatal("unfitted margin should be 0")
	}
}

func TestHybridSmallDataFallback(t *testing.T) {
	// 6 samples: too few for cross-fitting, must still train.
	x := [][]float64{{0, 0}, {0.2, 0}, {0, 0.1}, {3, 3}, {3.2, 3}, {3, 3.1}}
	y := []int{0, 0, 0, 1, 1, 1}
	h := NewHybridRSL(HybridConfig{Seed: 2})
	if err := h.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if p := h.PredictProba([]float64{3.1, 3.1}); p < 0.5 {
		t.Fatalf("positive proba = %v", p)
	}
}
