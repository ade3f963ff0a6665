package mlearn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// hybridOracle is the hybrid evaluation before banks were batched: each
// leg's own predictClean, the meta features through math.Log and the
// meta layer's sigmoid through math.Exp, one column at a time.
func hybridOracle(m *HybridRSL, x []float64) float64 {
	if !m.fitted {
		return 0
	}
	x = cleanFeatures(x)
	rfP, svmP := m.rf.predictClean(x), 0.0
	if s := m.svm; s.fitted {
		svmP = sigmoid(s.plattA*(scaledDot(s.w, s.scale, x)+s.bias) + s.plattB)
	}
	if !m.meta.fitted {
		return 0
	}
	mf := []float64{rfP, svmP, math.Log(clippedOdds(rfP)), math.Log(clippedOdds(svmP))}
	return sigmoid(scaledDot(m.meta.w, m.meta.scale, mf) + m.meta.bias)
}

// TestHybridBankMatchesColumns requires the batched evaluation of a
// hybrid-rsl bank to give every column's one-at-a-time bits
// (hybridOracle), for fitted, saved-then-loaded and assembled banks of
// 1, 3, 4, 31, 32, 33 and 91 columns (chunk and four-column group
// boundaries), on rows holding NaN and ±Inf, and of columns fitted on
// different rows, whose scalers differ. A bank with a column that
// is not a fitted hybrid takes the per-column loop and must agree too,
// as must a chunk holding a hybrid whose SVM leg is unfitted.
func TestHybridBankMatchesColumns(t *testing.T) {
	x, y := epanetData(t, 160)
	rng := rand.New(rand.NewSource(33))
	rows := append([][]float64{make([]float64, len(x[0]))}, x[:12]...)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for k := 0; k < 3; k++ {
			row := append([]float64(nil), x[rng.Intn(len(x))]...)
			for j := range row {
				if rng.Intn(4) == 0 {
					row[j] = v
				}
			}
			rows = append(rows, row)
		}
	}

	check := func(name string, mo *MultiOutput) {
		t.Helper()
		out := make([]float64, mo.Outputs())
		for r, row := range rows {
			if err := mo.PredictProbaInto(row, out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for v, c := range mo.models {
				want := c.PredictProba(row)
				if h, ok := c.(*HybridRSL); ok {
					want = hybridOracle(h, row)
				}
				if math.Float64bits(out[v]) != math.Float64bits(want) {
					t.Fatalf("%s: row %d, column %d: bank %v, column %v", name, r, v, out[v], want)
				}
				if got := c.PredictProba(row); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: row %d, column %d: PredictProba %v, oracle %v", name, r, v, got, want)
				}
			}
		}
	}
	cols := func(k int) [][]int {
		yk := make([][]int, len(y))
		for i := range y {
			yk[i] = y[i][:k]
		}
		return yk
	}

	var full *MultiOutput
	for _, k := range []int{1, 3, 4, 31, 32, 33, 91} {
		fitted := NewMultiOutput(namedFactory(t, "hybrid-rsl"), 77)
		if err := fitted.Fit(x, cols(k)); err != nil {
			t.Fatal(err)
		}
		if !hybridBank(fitted.models) {
			t.Fatalf("%d columns: fitted bank not taken as a hybrid bank", k)
		}
		check("fitted", fitted)

		var buf bytes.Buffer
		if err := fitted.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadMultiOutput(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check("loaded", loaded)

		assembled, err := AssembleMultiOutput(77, fitted.models)
		if err != nil {
			t.Fatal(err)
		}
		check("assembled", assembled)
		full = fitted
	}

	// Columns fitted on different rows, interleaved, so the columns of a
	// four-column group hold different scalers.
	half := NewMultiOutput(namedFactory(t, "hybrid-rsl"), 78)
	yh := make([][]int, 80)
	for i := range yh {
		yh[i] = y[i][:33]
	}
	if err := half.Fit(x[:80], yh); err != nil {
		t.Fatal(err)
	}
	models := append([]Classifier(nil), full.models[:33]...)
	for v := 1; v < len(models); v += 2 {
		models[v] = half.models[v]
	}
	interleaved, err := AssembleMultiOutput(77, models)
	if err != nil {
		t.Fatal(err)
	}
	check("interleaved", interleaved)

	// One column replaced by another technique: the per-column loop.
	models = append([]Classifier(nil), full.models...)
	forest := NewRandomForest(RFConfig{Trees: 5, Seed: 3})
	yv := make([]int, len(y))
	for i := range y {
		yv[i] = y[i][40]
	}
	if err := forest.Fit(x, yv); err != nil {
		t.Fatal(err)
	}
	models[40] = forest
	mixed, err := AssembleMultiOutput(77, models)
	if err != nil {
		t.Fatal(err)
	}
	if hybridBank(mixed.models) {
		t.Fatal("mixed bank taken as a hybrid bank")
	}
	check("mixed", mixed)

	// A hybrid whose SVM leg is unfitted, inside a four-column group.
	models = append([]Classifier(nil), full.models...)
	h := *models[5].(*HybridRSL)
	h.svm = NewSVM(SVMConfig{})
	models[5] = &h
	crafted, err := AssembleMultiOutput(77, models)
	if err != nil {
		t.Fatal(err)
	}
	check("unfitted-svm-leg", crafted)
}
