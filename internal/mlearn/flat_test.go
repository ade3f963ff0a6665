package mlearn

import (
	"math"
	"math/rand"
	"testing"
)

// randomXY draws a random binary problem with both classes present.
func randomXY(rng *rand.Rand, n, d int) ([][]float64, []int) {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 3
		}
		x[i] = row
		y[i] = rng.Intn(2)
	}
	// Guarantee both classes.
	y[0], y[1] = 0, 1
	return x, y
}

// probes draws prediction inputs: random vectors plus exact training
// rows (which sit on split thresholds, the interesting edge).
func probes(rng *rand.Rand, x [][]float64, count int) [][]float64 {
	d := len(x[0])
	out := make([][]float64, 0, count+4)
	for i := 0; i < count; i++ {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64() * 4
		}
		out = append(out, row)
	}
	for i := 0; i < 4 && i < len(x); i++ {
		out = append(out, x[i])
	}
	return out
}

// TestFlatTreePropertyEqualsPointer is the compiled-path property test:
// over 1e3 randomized fitted trees, flattened traversal must equal
// pointer traversal bit for bit on every probe.
func TestFlatTreePropertyEqualsPointer(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 1000; trial++ {
		n := 10 + rng.Intn(40)
		d := 2 + rng.Intn(5)
		x, y := randomXY(rng, n, d)
		tree := NewDecisionTree(TreeConfig{MaxDepth: 2 + rng.Intn(8), MinLeaf: 1 + rng.Intn(3)})
		if err := tree.Fit(x, y); err != nil {
			t.Fatalf("trial %d: fit: %v", trial, err)
		}
		flat, err := tree.Compile()
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		for pi, probe := range probes(rng, x, 4) {
			want := tree.PredictProba(probe)
			got := flat.PredictProba(probe)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("trial %d probe %d: pointer %v != flat %v", trial, pi, want, got)
			}
		}
	}
}

// TestCompiledMatchesPointerAllTechniques pins bit-identity of Compile
// output for every registered technique, on finite and non-finite
// inputs.
func TestCompiledMatchesPointerAllTechniques(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < 10; trial++ {
				n := 24 + rng.Intn(40)
				d := 3 + rng.Intn(4)
				x, y := randomXY(rng, n, d)
				c, err := NewByName(name, int64(trial))
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Fit(x, y); err != nil {
					t.Fatalf("trial %d: fit: %v", trial, err)
				}
				cc, err := Compile(c)
				if err != nil {
					t.Fatalf("trial %d: compile: %v", trial, err)
				}
				if _, ok := cc.(passthrough); ok {
					t.Fatalf("%s compiled to the passthrough fallback", name)
				}
				for pi, probe := range probes(rng, x, 6) {
					want := c.PredictProba(probe)
					got := cc.PredictProba(probe)
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("trial %d probe %d: pointer %v != compiled %v", trial, pi, want, got)
					}
					// Corrupt one entry; both paths must still agree and
					// match the explicit zero substitution.
					dirty := append([]float64(nil), probe...)
					dirty[pi%d] = math.NaN()
					zeroed := append([]float64(nil), probe...)
					zeroed[pi%d] = 0
					pw, pg := c.PredictProba(dirty), cc.PredictProba(dirty)
					if math.Float64bits(pw) != math.Float64bits(pg) {
						t.Fatalf("trial %d probe %d: NaN input: pointer %v != compiled %v", trial, pi, pw, pg)
					}
					if math.Float64bits(pw) != math.Float64bits(c.PredictProba(zeroed)) {
						t.Fatalf("trial %d probe %d: NaN not treated as 0", trial, pi)
					}
				}
			}
		})
	}
}

// TestNonFiniteFeatureContract pins the uniform predictor contract:
// NaN and ±Inf features act as 0 and the output stays a probability.
func TestNonFiniteFeatureContract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, y := randomXY(rng, 60, 4)
	for _, name := range Names() {
		c, err := NewByName(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Fit(x, y); err != nil {
			t.Fatalf("%s: fit: %v", name, err)
		}
		dirty := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1.5}
		clean := []float64{0, 0, 0, 1.5}
		got := c.PredictProba(dirty)
		want := c.PredictProba(clean)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: dirty %v != clean %v", name, got, want)
		}
		if math.IsNaN(got) || got < 0 || got > 1 {
			t.Errorf("%s: dirty input produced %v, want probability", name, got)
		}
		// The caller's slice must stay untouched.
		if !math.IsNaN(dirty[0]) || !math.IsInf(dirty[1], 1) {
			t.Errorf("%s: PredictProba mutated the input slice", name)
		}
	}
}

func TestCleanFeaturesAllocatesOnlyWhenDirty(t *testing.T) {
	clean := []float64{1, 2, 3}
	if got := testing.AllocsPerRun(100, func() { cleanFeatures(clean) }); got != 0 {
		t.Errorf("clean path allocated %v times per run", got)
	}
	dirty := []float64{1, math.NaN(), 3}
	out := cleanFeatures(dirty)
	if &out[0] == &dirty[0] {
		t.Fatal("dirty path returned the caller's slice")
	}
	if out[0] != 1 || out[1] != 0 || out[2] != 3 {
		t.Fatalf("sanitized = %v, want [1 0 3]", out)
	}
}

// TestCompiledMultiOutput pins CompiledMultiOutput against MultiOutput:
// bitwise-equal probabilities and an allocation-free PredictProbaInto.
func TestCompiledMultiOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, d, outputs := 40, 5, 6
	x := make([][]float64, n)
	yy := make([][]int, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		lab := make([]int, outputs)
		for v := range lab {
			lab[v] = rng.Intn(2)
		}
		yy[i] = lab
	}
	for v := 0; v < outputs; v++ {
		yy[0][v], yy[1][v] = 0, 1
	}
	factory := func(seed int64) Classifier {
		return NewHybridRSL(HybridConfig{
			RF:   RFConfig{Trees: 5, MaxDepth: 4},
			SVM:  SVMConfig{Epochs: 5},
			Meta: LogisticConfig{Epochs: 40},
			Seed: seed,
		})
	}
	mo := NewMultiOutput(factory, 1)
	if err := mo.Fit(x, yy); err != nil {
		t.Fatal(err)
	}
	cm, err := mo.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cm.Outputs() != outputs {
		t.Fatalf("Outputs = %d, want %d", cm.Outputs(), outputs)
	}

	out := make([]float64, outputs)
	for _, probe := range probes(rng, x, 8) {
		want, err := mo.PredictProba(probe)
		if err != nil {
			t.Fatal(err)
		}
		if err := cm.PredictProbaInto(probe, out); err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if math.Float64bits(want[v]) != math.Float64bits(out[v]) {
				t.Fatalf("output %d: pointer %v != compiled %v", v, want[v], out[v])
			}
		}
	}

	probe := x[0]
	if got := testing.AllocsPerRun(100, func() {
		if err := cm.PredictProbaInto(probe, out); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("PredictProbaInto allocated %v times per run, want 0", got)
	}

	if err := cm.PredictProbaInto(probe, out[:2]); err == nil {
		t.Error("short buffer accepted")
	}
}

// TestCompileUnfitted pins the error contract for unfitted models.
func TestCompileUnfitted(t *testing.T) {
	cases := []Classifier{
		NewDecisionTree(TreeConfig{}),
		NewRandomForest(RFConfig{}),
		NewGradientBoosting(GBConfig{}),
		NewLinearRegression(LinearConfig{}),
		NewLogisticRegression(LogisticConfig{}),
		NewSVM(SVMConfig{}),
		NewHybridRSL(HybridConfig{}),
	}
	for _, c := range cases {
		if _, err := Compile(c); err == nil {
			t.Errorf("%T: compiling unfitted model succeeded", c)
		}
	}
}

// treeArena returns the compiled tree arena of a tree-ensemble model.
func treeArena(t *testing.T, cc Compiled) *flatArena {
	t.Helper()
	switch m := cc.(type) {
	case *FlatForest:
		return &m.a
	case *FlatGBM:
		return &m.a
	case *FlatHybrid:
		return &m.rf.a
	}
	t.Fatalf("%T has no tree arena", cc)
	return nil
}

// arenaProbes builds prediction inputs aimed at the compiled trees:
// the base rows, then for every split a base row with the split feature
// set exactly to the threshold (a tie, which goes left) and to the next
// float above it, then base rows with a split feature made NaN, +Inf or
// -Inf.
func arenaProbes(a *flatArena, base [][]float64) [][]float64 {
	out := append([][]float64(nil), base...)
	with := func(row []float64, f int, v float64) []float64 {
		p := append([]float64(nil), row...)
		p[f] = v
		return p
	}
	for i, n := range a.nodes {
		if n.kid[0] == int32(i) {
			continue // leaf
		}
		row := base[i%len(base)]
		out = append(out, with(row, int(n.feat), n.thr), with(row, int(n.feat), math.Nextafter(n.thr, math.Inf(1))))
	}
	for ti, r := range a.roots {
		row := base[ti%len(base)]
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			out = append(out, with(row, int(a.nodes[r].feat), v))
		}
	}
	return out
}

// TestCompiledMatchesPointerEPANet pins compiled == pointer bit for bit
// on the served profile shape: tree ensembles fitted on the 800-sample
// EPA-NET set (depth-10 forests), including a 70-tree forest and GBM's
// 60 stages, which span more than one descent block; every ensemble
// ends in a partial block. Probes hit every split threshold exactly and
// carry non-finite features.
func TestCompiledMatchesPointerEPANet(t *testing.T) {
	x, y := epanetData(t, 800)
	base := append([][]float64{make([]float64, len(x[0]))}, x[:8]...)
	cases := []struct {
		name  string
		model func(seed int64) Classifier
	}{
		{"rf", func(seed int64) Classifier { return NewRandomForest(RFConfig{Seed: seed}) }},
		{"rf-70", func(seed int64) Classifier { return NewRandomForest(RFConfig{Trees: 70, Seed: seed}) }},
		{"gb", func(seed int64) Classifier { return NewGradientBoosting(GBConfig{Seed: seed}) }},
		{"hybrid-rsl", func(seed int64) Classifier { return NewHybridRSL(HybridConfig{Seed: seed}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, v := range []int{0, 45, 90} {
				col := make([]int, len(y))
				for i := range y {
					col[i] = y[i][v]
				}
				c := tc.model(int64(v))
				if err := c.Fit(x, col); err != nil {
					t.Fatalf("column %d: fit: %v", v, err)
				}
				cc, err := Compile(c)
				if err != nil {
					t.Fatalf("column %d: compile: %v", v, err)
				}
				a := treeArena(t, cc)
				if len(a.roots)%descendBlock == 0 {
					t.Fatalf("column %d: %d trees fill whole blocks", v, len(a.roots))
				}
				for pi, probe := range arenaProbes(a, base) {
					want := c.PredictProba(probe)
					got := cc.PredictProba(probe)
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("column %d probe %d: pointer %v != compiled %v", v, pi, want, got)
					}
				}
				t.Logf("column %d: %d trees, depth %d, %d nodes", v, len(a.roots), a.depth, len(a.nodes))
			}
		})
	}
}
