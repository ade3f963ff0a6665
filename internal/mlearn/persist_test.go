package mlearn

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveClassifier(&buf, c); err != nil {
		t.Fatalf("SaveClassifier: %v", err)
	}
	loaded, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatalf("LoadClassifier: %v", err)
	}
	return loaded
}

func TestClassifierRoundTripPreservesPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trX, trY := blobs(rng, 250, 0.4)
	probes := make([][]float64, 50)
	for i := range probes {
		probes[i] = []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
	}
	for name, c := range makeAll(5) {
		t.Run(name, func(t *testing.T) {
			if err := c.Fit(trX, trY); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			loaded := roundTrip(t, c)
			for _, x := range probes {
				want := c.PredictProba(x)
				got := loaded.PredictProba(x)
				if want != got {
					t.Fatalf("prediction drift after round trip: %v vs %v", want, got)
				}
			}
		})
	}
}

func TestFlattenTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trX, trY := xorData(rng, 300)
	tree := NewDecisionTree(TreeConfig{MaxDepth: 8})
	if err := tree.Fit(trX, trY); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	flat := flattenTree(tree.root)
	if len(flat) < 3 {
		t.Fatalf("tree too small: %d nodes", len(flat))
	}
	rebuilt, err := unflattenTree(flat)
	if err != nil {
		t.Fatalf("unflattenTree: %v", err)
	}
	for i := 0; i < 100; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		if tree.root.predict(x) != rebuilt.predict(x) {
			t.Fatal("rebuilt tree predicts differently")
		}
	}
}

func TestUnflattenTreeCorrupt(t *testing.T) {
	if _, err := unflattenTree([]flatNode{{Leaf: false, Left: 5, Right: 6}}); err == nil {
		t.Fatal("corrupt links should error")
	}
	root, err := unflattenTree(nil)
	if err != nil || root != nil {
		t.Fatalf("empty input: %v, %v", root, err)
	}
}

func TestLoadClassifierUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft an envelope with a bogus kind.
	env := envelope{Kind: "bogus", Payload: []byte{1, 2, 3}}
	if err := encodeGob(&buf, env); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifier(&buf); err == nil {
		t.Fatal("unknown kind should error")
	}
}

func TestSaveUnfittedHybrid(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveClassifier(&buf, NewHybridRSL(HybridConfig{})); err == nil {
		t.Fatal("unfitted hybrid should refuse to save")
	}
}

func TestMultiOutputRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 150
	x := make([][]float64, n)
	y := make([][]int, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64()}
		y[i] = []int{boolToInt(x[i][0] > 0), boolToInt(x[i][1] > 0)}
	}
	mo := NewMultiOutput(func(seed int64) Classifier {
		return NewGradientBoosting(GBConfig{Seed: seed, Rounds: 20})
	}, 9)
	if err := mo.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	var buf bytes.Buffer
	if err := mo.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadMultiOutput(&buf)
	if err != nil {
		t.Fatalf("LoadMultiOutput: %v", err)
	}
	if loaded.Outputs() != 2 {
		t.Fatalf("outputs = %d", loaded.Outputs())
	}
	probe := []float64{1.2, -0.7}
	want, _ := mo.PredictProba(probe)
	got, err := loaded.PredictProba(probe)
	if err != nil {
		t.Fatalf("PredictProba: %v", err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("output %d drift: %v vs %v", i, want[i], got[i])
		}
	}
}

func TestMultiOutputSaveUnfitted(t *testing.T) {
	mo := NewMultiOutput(func(seed int64) Classifier { return NewDecisionTree(TreeConfig{}) }, 1)
	var buf bytes.Buffer
	if err := mo.Save(&buf); err != ErrNotFitted {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
}

// craftedTree encodes a "tree" envelope holding nodes as given, the way
// an untrusted profile upload could.
func craftedTree(t *testing.T, nodes []flatNode) *bytes.Buffer {
	t.Helper()
	var payload, buf bytes.Buffer
	if err := encodeGob(&payload, treeState{Nodes: nodes}); err != nil {
		t.Fatal(err)
	}
	if err := encodeGob(&buf, envelope{Kind: "tree", Payload: payload.Bytes()}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestLoadClassifierRejectsMalformedTrees pins the decode-time structure
// check: a self-linked node used to decode cleanly and then overflow the
// stack in Compile (or loop forever in predict).
func TestLoadClassifierRejectsMalformedTrees(t *testing.T) {
	leaf := flatNode{Leaf: true, Left: -1, Right: -1, Value: 0.5}
	cases := map[string][]flatNode{
		"self-linked":      {{Feature: 0, Left: 0, Right: 0}},
		"back-link":        {{Feature: 0, Left: 1, Right: 2}, {Feature: 1, Left: 0, Right: 3}, leaf, leaf},
		"shared-child":     {{Feature: 0, Left: 1, Right: 1}, leaf},
		"two-parents":      {{Feature: 0, Left: 1, Right: 2}, {Feature: 1, Left: 2, Right: 3}, leaf, leaf},
		"unreachable":      {{Feature: 0, Left: 1, Right: 2}, leaf, leaf, leaf},
		"negative-feature": {{Feature: -1, Left: 1, Right: 2}, leaf, leaf},
		"out-of-bounds":    {{Feature: 0, Left: 1, Right: 9}, leaf},
	}
	for name, nodes := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := LoadClassifier(craftedTree(t, nodes))
			if !errors.Is(err, ErrCorruptTree) {
				t.Fatalf("LoadClassifier = %v, %v; want ErrCorruptTree", c, err)
			}
		})
	}
}

// TestLoadClassifierReportsSplitFeature pins the other crafted input: a
// split on feature 7 is structurally valid, so it decodes, and the bank
// reports it so a deployment with fewer features can refuse it before
// any evaluation indexes past the input.
func TestLoadClassifierReportsSplitFeature(t *testing.T) {
	leaf := flatNode{Leaf: true, Left: -1, Right: -1}
	c, err := LoadClassifier(craftedTree(t, []flatNode{{Feature: 7, Left: 1, Right: 2}, leaf, leaf}))
	if err != nil {
		t.Fatalf("LoadClassifier: %v", err)
	}
	if got := maxSplitFeature(c); got != 7 {
		t.Fatalf("maxSplitFeature = %d, want 7", got)
	}
	if got := (&MultiOutput{models: []Classifier{NewLinearRegression(LinearConfig{}), c}}).MaxSplitFeature(); got != 7 {
		t.Fatalf("MaxSplitFeature = %d, want 7", got)
	}
	if got := (&MultiOutput{models: []Classifier{NewLinearRegression(LinearConfig{})}}).MaxSplitFeature(); got != -1 {
		t.Fatalf("MaxSplitFeature without trees = %d, want -1", got)
	}
}
