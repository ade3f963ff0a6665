package mlearn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/aquascale/aquascale/internal/matrix"
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

// walkWire follows a saved tree's links one node at a time from the
// root — the pointer walk the arena's block descent replaced — and
// returns the leaf value x reaches.
func walkWire(nodes []flatNode, x []float64) float64 {
	n := nodes[0]
	for !n.Leaf {
		if x[n.Feature] <= n.Threshold {
			n = nodes[n.Left]
		} else {
			n = nodes[n.Right]
		}
	}
	return n.Value
}

// pointerOracle returns the straightforward evaluation of a fitted
// classifier, built from its saved state: trees walked link by link with
// leaf values added in tree order, and the linear family standardizing
// into a fresh vector before matrix.Dot. It is what the classifiers
// computed before their trees lived in a packed arena, and every
// package classifier's allocation-free PredictProba must match it bit
// for bit.
func pointerOracle(t *testing.T, c Classifier) func(x []float64) float64 {
	t.Helper()
	switch m := c.(type) {
	case *DecisionTree:
		tree := m.arena.wire(0)
		return func(x []float64) float64 { return clamp01(walkWire(tree, cleanFeatures(x))) }
	case *RandomForest:
		forest := m.arena.wireAll()
		return func(x []float64) float64 {
			x = cleanFeatures(x)
			sum := 0.0
			for _, tree := range forest {
				sum += walkWire(tree, x)
			}
			return clamp01(sum / float64(len(forest)))
		}
	case *GradientBoosting:
		stages := m.arena.wireAll()
		return func(x []float64) float64 {
			x = cleanFeatures(x)
			score := m.bias
			for _, tree := range stages {
				score += m.cfg.LearningRate * walkWire(tree, x)
			}
			return sigmoid(score)
		}
	case *LinearRegression:
		return func(x []float64) float64 {
			return clamp01(matrix.Dot(m.w, m.scale.transform(cleanFeatures(x))) + m.bias)
		}
	case *LogisticRegression:
		return func(x []float64) float64 {
			return sigmoid(matrix.Dot(m.w, m.scale.transform(cleanFeatures(x))) + m.bias)
		}
	case *SVM:
		return func(x []float64) float64 {
			margin := matrix.Dot(m.w, m.scale.transform(cleanFeatures(x))) + m.bias
			return sigmoid(m.plattA*margin + m.plattB)
		}
	case *HybridRSL:
		rf, svm, meta := pointerOracle(t, m.rf), pointerOracle(t, m.svm), pointerOracle(t, m.meta)
		return func(x []float64) float64 {
			x = cleanFeatures(x)
			mf := metaFeatures(rf(x), svm(x))
			return meta(mf[:])
		}
	}
	t.Fatalf("no oracle for %T", c)
	return nil
}

// TestFlatTreePropertyEqualsPointer is the arena property test: over
// 1e3 randomized fitted trees, block descent over the packed arena must
// equal the pointer walk of the saved tree bit for bit on every probe.
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
		oracle := pointerOracle(t, tree)
		for pi, probe := range probes(rng, x, 4) {
			want := oracle(probe)
			got := tree.PredictProba(probe)
			if math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("trial %d probe %d: pointer %v != arena %v", trial, pi, want, got)
			}
		}
	}
}

// TestCompiledMatchesPointerAllTechniques pins every registered
// technique's allocation-free PredictProba against its pointer oracle,
// bit for bit, on finite and non-finite inputs.
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
				oracle := pointerOracle(t, c)
				for pi, probe := range probes(rng, x, 6) {
					want := oracle(probe)
					got := c.PredictProba(probe)
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("trial %d probe %d: pointer %v != PredictProba %v", trial, pi, want, got)
					}
					// Corrupt one entry; both must still agree and match
					// the explicit zero substitution.
					dirty := append([]float64(nil), probe...)
					dirty[pi%d] = math.NaN()
					zeroed := append([]float64(nil), probe...)
					zeroed[pi%d] = 0
					pw, pg := oracle(dirty), c.PredictProba(dirty)
					if math.Float64bits(pw) != math.Float64bits(pg) {
						t.Fatalf("trial %d probe %d: NaN input: pointer %v != PredictProba %v", trial, pi, pw, pg)
					}
					if math.Float64bits(pg) != math.Float64bits(c.PredictProba(zeroed)) {
						t.Fatalf("trial %d probe %d: NaN not treated as 0", trial, pi)
					}
				}
			}
		})
	}
}

// TestPredictProbaZeroAlloc pins that every technique's own PredictProba
// allocates nothing on finite input: the fitted model is the served
// form.
func TestPredictProbaZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, y := randomXY(rng, 60, 5)
	for name, c := range makeAll(3) {
		if err := c.Fit(x, y); err != nil {
			t.Fatalf("%s: fit: %v", name, err)
		}
		probe := x[7]
		if got := testing.AllocsPerRun(100, func() { predictSink = c.PredictProba(probe) }); got != 0 {
			t.Errorf("%s: PredictProba allocated %v times per run, want 0", name, got)
		}
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

// TestMultiOutputPredictProbaInto pins the bank's served form against
// its per-model one: PredictProbaInto, which sanitizes x once and calls
// each model's allocation-free evaluation, equals PredictProba of every
// output bit for bit, allocates nothing, and refuses a short buffer.
func TestMultiOutputPredictProbaInto(t *testing.T) {
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

	out := make([]float64, outputs)
	ps := probes(rng, x, 8)
	nan := append([]float64(nil), ps[0]...)
	nan[2] = math.NaN()
	for _, probe := range append(ps, nan) {
		if err := mo.PredictProbaInto(probe, out); err != nil {
			t.Fatal(err)
		}
		for v, c := range mo.models {
			if want := c.PredictProba(probe); math.Float64bits(want) != math.Float64bits(out[v]) {
				t.Fatalf("output %d: PredictProba %v != PredictProbaInto %v", v, want, out[v])
			}
		}
	}

	probe := x[0]
	if got := testing.AllocsPerRun(100, func() {
		if err := mo.PredictProbaInto(probe, out); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("PredictProbaInto allocated %v times per run, want 0", got)
	}

	if err := mo.PredictProbaInto(probe, out[:2]); err == nil {
		t.Error("short buffer accepted")
	}
	if err := NewMultiOutput(factory, 1).PredictProbaInto(probe, out); !errors.Is(err, ErrNotFitted) {
		t.Errorf("unfitted bank: %v, want ErrNotFitted", err)
	}
}

// TestCheckWidthRefusesUnfitted pins the install-time refusal of a bank
// with an unfitted member, alone or as a hybrid's leg; unfitted models
// themselves predict 0.
func TestCheckWidthRefusesUnfitted(t *testing.T) {
	fittedForest := NewRandomForest(RFConfig{Trees: 3})
	x, y := randomXY(rand.New(rand.NewSource(2)), 30, 2)
	if err := fittedForest.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	cases := []Classifier{
		NewDecisionTree(TreeConfig{}),
		NewRandomForest(RFConfig{}),
		NewGradientBoosting(GBConfig{}),
		NewLinearRegression(LinearConfig{}),
		NewLogisticRegression(LogisticConfig{}),
		NewSVM(SVMConfig{}),
		NewHybridRSL(HybridConfig{}),
		// A hybrid marked fitted whose legs are not.
		&HybridRSL{fitted: true, rf: NewRandomForest(RFConfig{}), svm: NewSVM(SVMConfig{}), meta: NewLogisticRegression(LogisticConfig{})},
	}
	for _, c := range cases {
		bank := &MultiOutput{models: []Classifier{fittedForest, c}}
		if err := bank.CheckWidth(2); !errors.Is(err, ErrNotFitted) {
			t.Errorf("%T: CheckWidth = %v, want ErrNotFitted", c, err)
		}
	}
}

// arenaProbes builds prediction inputs aimed at the fitted trees:
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

// TestCompiledMatchesPointerEPANet pins block descent against the
// pointer oracle bit for bit on the served profile shape: tree ensembles
// fitted on the 800-sample EPA-NET set (depth-10 forests), including a
// 70-tree forest and GBM's 60 stages, which span more than one descent
// block; every ensemble ends in a partial block. Probes hit every split
// threshold exactly and carry non-finite features.
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
				a := fittedArena(c)
				if len(a.roots)%descendBlock == 0 {
					t.Fatalf("column %d: %d trees fill whole blocks", v, len(a.roots))
				}
				oracle := pointerOracle(t, c)
				for pi, probe := range arenaProbes(a, base) {
					want := oracle(probe)
					got := c.PredictProba(probe)
					if math.Float64bits(want) != math.Float64bits(got) {
						t.Fatalf("column %d probe %d: pointer %v != arena %v", v, pi, want, got)
					}
				}
				t.Logf("column %d: %d trees, depth %d, %d nodes", v, len(a.roots), a.depth, len(a.nodes))
			}
		})
	}
}

// fittedArena returns the tree arena a fitted classifier evaluates (a
// hybrid's is its rf leg's), or nil for a model without trees.
func fittedArena(c Classifier) *flatArena {
	switch m := c.(type) {
	case *DecisionTree:
		return &m.arena
	case *RandomForest:
		return &m.arena
	case *GradientBoosting:
		return &m.arena
	case *HybridRSL:
		return &m.rf.arena
	}
	return nil
}
