package mlearn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
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

// TestFlattenTreeRoundTrip pins the saved tree form: the arena a forest
// grew, written as wire records and read back, is the same arena node
// for node, with the same roots and depth.
func TestFlattenTreeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	trX, trY := xorData(rng, 300)
	forest := NewRandomForest(RFConfig{Trees: 40, MaxDepth: 8, Seed: 2})
	if err := forest.Fit(trX, trY); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	wire := forest.arena.wireAll()
	if len(wire) != 40 || len(wire[0]) < 3 {
		t.Fatalf("saved %d trees, first of %d nodes", len(wire), len(wire[0]))
	}
	var rebuilt flatArena
	if err := appendWireTrees(&rebuilt, wire); err != nil {
		t.Fatalf("appendWireTrees: %v", err)
	}
	if !reflect.DeepEqual(rebuilt.nodes, forest.arena.nodes) || !reflect.DeepEqual(rebuilt.roots, forest.arena.roots) ||
		rebuilt.depth != forest.arena.depth {
		t.Fatalf("rebuilt arena differs: %d nodes, %d roots, depth %d; want %d, %d, %d",
			len(rebuilt.nodes), len(rebuilt.roots), rebuilt.depth,
			len(forest.arena.nodes), len(forest.arena.roots), forest.arena.depth)
	}
}

// TestUnflattenTreeCorrupt pins the wire check on its own: links past
// the tree and an empty tree are refused, while a decision tree saved
// with no nodes loads as an unfitted tree.
func TestUnflattenTreeCorrupt(t *testing.T) {
	var a flatArena
	if err := a.appendWire([]flatNode{{Leaf: false, Left: 5, Right: 6}}); !errors.Is(err, ErrCorruptTree) {
		t.Fatalf("corrupt links: %v, want ErrCorruptTree", err)
	}
	if err := a.appendWire(nil); !errors.Is(err, ErrCorruptTree) {
		t.Fatalf("empty tree: %v, want ErrCorruptTree", err)
	}
	c, err := LoadClassifier(craftedTree(t, nil))
	if err != nil || c.PredictProba([]float64{1}) != 0 {
		t.Fatalf("decision tree with no nodes: %v, %v; want an unfitted tree", c, err)
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

// craftedEnvelope encodes a kind envelope holding state as given, the
// way an untrusted profile upload could.
func craftedEnvelope(t *testing.T, kind string, state any) *bytes.Buffer {
	t.Helper()
	var payload, buf bytes.Buffer
	if err := encodeGob(&payload, state); err != nil {
		t.Fatal(err)
	}
	if err := encodeGob(&buf, envelope{Kind: kind, Payload: payload.Bytes()}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// craftedTree encodes a "tree" envelope holding nodes as given.
func craftedTree(t *testing.T, nodes []flatNode) *bytes.Buffer {
	return craftedEnvelope(t, "tree", treeState{Nodes: nodes})
}

// TestLoadClassifierRejectsMalformedTrees pins the decode-time structure
// check: a self-linked node used to decode cleanly and then overflow the
// stack when the tree was first walked (or loop forever in predict), and
// an empty tree inside a forest or booster, a hybrid's rf leg included,
// used to decode cleanly and then panic with a nil dereference in the
// install-time width check.
func TestLoadClassifierRejectsMalformedTrees(t *testing.T) {
	leaf := flatNode{Leaf: true, Left: -1, Right: -1, Value: 0.5}
	cases := map[string]*bytes.Buffer{}
	for name, nodes := range map[string][]flatNode{
		"self-linked":      {{Feature: 0, Left: 0, Right: 0}},
		"back-link":        {{Feature: 0, Left: 1, Right: 2}, {Feature: 1, Left: 0, Right: 3}, leaf, leaf},
		"shared-child":     {{Feature: 0, Left: 1, Right: 1}, leaf},
		"two-parents":      {{Feature: 0, Left: 1, Right: 2}, {Feature: 1, Left: 2, Right: 3}, leaf, leaf},
		"unreachable":      {{Feature: 0, Left: 1, Right: 2}, leaf, leaf, leaf},
		"negative-feature": {{Feature: -1, Left: 1, Right: 2}, leaf, leaf},
		"out-of-bounds":    {{Feature: 0, Left: 1, Right: 9}, leaf},
	} {
		cases[name] = craftedTree(t, nodes)
	}
	emptyTree := [][]flatNode{{leaf}, {}}
	cases["rf-empty-tree"] = craftedEnvelope(t, "rf", forestState{Trees: emptyTree})
	cases["gb-empty-tree"] = craftedEnvelope(t, "gb", gbState{Trees: emptyTree})
	leg := func(kind string, state any) []byte { return craftedEnvelope(t, kind, state).Bytes() }
	cases["hybrid-rf-empty-tree"] = craftedEnvelope(t, "hybrid-rsl", hybridState{
		RF:     leg("rf", forestState{Trees: emptyTree}),
		SVM:    leg("svm", svmState{Fitted: true}),
		Meta:   leg("logistic", logisticState{Fitted: true}),
		Fitted: true,
	})
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			c, err := LoadClassifier(body)
			if !errors.Is(err, ErrCorruptTree) {
				t.Fatalf("LoadClassifier = %v, %v; want ErrCorruptTree", c, err)
			}
		})
	}
}

// TestLoadClassifierReportsSplitFeature pins the other crafted input: a
// split on feature 7 is structurally valid, so it decodes, and the bank's
// width check refuses it for a deployment with fewer features before any
// evaluation indexes past the input.
func TestLoadClassifierReportsSplitFeature(t *testing.T) {
	leaf := flatNode{Leaf: true, Left: -1, Right: -1}
	c, err := LoadClassifier(craftedTree(t, []flatNode{{Feature: 7, Left: 1, Right: 2}, leaf, leaf}))
	if err != nil {
		t.Fatalf("LoadClassifier: %v", err)
	}
	stump, err := LoadClassifier(craftedTree(t, []flatNode{leaf}))
	if err != nil {
		t.Fatalf("LoadClassifier: %v", err)
	}
	bank := &MultiOutput{models: []Classifier{stump, c}}
	if err := bank.CheckWidth(7); err == nil || !strings.Contains(err.Error(), "feature 7") {
		t.Fatalf("CheckWidth(7) = %v, want a split on feature 7 refused", err)
	}
	if err := bank.CheckWidth(8); err != nil {
		t.Fatalf("CheckWidth(8) = %v, want nil", err)
	}
}

// TestCheckWidthAffine pins the width check for the linear family: a
// fitted linear, logistic or SVM leg must carry exactly one weight and
// one scaler entry per input feature, including inside a hybrid stack.
func TestCheckWidthAffine(t *testing.T) {
	x, y := blobs(rand.New(rand.NewSource(1)), 80, 0.5)
	ys := make([][]int, len(y))
	for i, v := range y {
		ys[i] = []int{v}
	}
	for _, name := range []string{"linear", "logistic", "svm", "hybrid-rsl"} {
		t.Run(name, func(t *testing.T) {
			bank := NewMultiOutput(func(seed int64) Classifier {
				c, err := NewByName(name, seed)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}, 1)
			if err := bank.Fit(x, ys); err != nil {
				t.Fatalf("Fit: %v", err)
			}
			if err := bank.CheckWidth(2); err != nil {
				t.Fatalf("CheckWidth(fitted width) = %v", err)
			}
			if err := bank.CheckWidth(1); err == nil {
				t.Fatal("CheckWidth accepted a narrower input")
			}
		})
	}

	wide := &LinearRegression{fitted: true, w: make([]float64, 4), scale: &scaler{mean: make([]float64, 4), inv: make([]float64, 4)}}
	short := &LinearRegression{fitted: true, w: make([]float64, 3), scale: &scaler{mean: make([]float64, 3), inv: make([]float64, 1)}}
	bare := &LinearRegression{fitted: true, w: make([]float64, 3)}
	for name, c := range map[string]Classifier{"wide": wide, "short-scaler": short, "no-scaler": bare} {
		if err := (&MultiOutput{models: []Classifier{c}}).CheckWidth(3); err == nil {
			t.Fatalf("%s linear leg accepted for a 3-wide input", name)
		}
	}
}

// TestGobEncodersMatchFreshEncoder requires the per-type encoders Save
// uses to write exactly what a fresh gob.Encoder per value writes, for
// values of several types interleaved in any order.
func TestGobEncodersMatchFreshEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var g gobEncoders
	for i := 0; i < 200; i++ {
		var v any
		switch rng.Intn(3) {
		case 0:
			v = linearState{W: []float64{rng.NormFloat64(), rng.NormFloat64()}, Bias: rng.NormFloat64(), Fitted: i%2 == 0}
		case 1:
			v = envelope{Kind: "linear", Payload: []byte{byte(i), 1, 2}}
		default:
			v = gbState{Bias: float64(i)}
		}
		got, err := g.encode(v)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := gob.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("value %d (%T): per-type encoder wrote %x, fresh encoder %x", i, v, got, want.Bytes())
		}
	}
}

// TestSaveWriterMatchesGob requires the hand-written multiOutputState
// message to be gob.Encoder's bytes: Seed zero, small, negative and at
// both int64 limits; no models (nil and empty), one and many; and model
// payloads at the lengths where gob's length prefix changes width (0,
// 0x7F, 0x80, 0xFF, 0x100, 0xFFFF, 0x10000), plus random mixes.
func TestSaveWriterMatchesGob(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	seeds := []int64{0, 1, -1, 63, 64, -64, -65, 77, 1 << 40, math.MaxInt64, math.MinInt64}
	lengths := []int{0, 0x7F, 0x80, 0xFF, 0x100, 0xFFFF, 0x10000}
	payload := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	check := func(seed int64, models [][]byte) {
		t.Helper()
		got, err := new(gobEncoders).multiOutputState(seed, models)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := gob.NewEncoder(&want).Encode(multiOutputState{Seed: seed, Models: models}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("seed %d, %d models: wrote %d bytes, gob.Encoder %d (or the same length, other bytes)",
				seed, len(models), len(got), want.Len())
		}
	}
	for _, seed := range seeds {
		check(seed, nil)
		check(seed, [][]byte{})
		for _, n := range lengths {
			check(seed, [][]byte{payload(n)})
		}
		many := make([][]byte, 0, 200)
		for range 200 {
			many = append(many, payload(rng.Intn(300)))
		}
		check(seed, many)
	}
	for range 300 {
		models := make([][]byte, rng.Intn(12))
		for i := range models {
			if rng.Intn(3) == 0 {
				models[i] = payload(lengths[rng.Intn(len(lengths))])
			} else {
				models[i] = payload(rng.Intn(0x200))
			}
		}
		check(seeds[rng.Intn(len(seeds))]+int64(rng.Intn(3))-1, models)
	}
}

// TestSaveAllocationBudget bounds what Save allocates for the
// corpus-grid shape, 1,024 ridge columns (a ~2 MB profile): ≤ 7 MiB.
// gob.Encoder building the message itself took ~12.3 MiB.
func TestSaveAllocationBudget(t *testing.T) {
	mo := gridLinearBank(t)
	var out bytes.Buffer
	if err := mo.Save(&out); err != nil { // also warms gob's type tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := mo.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("Save of %d columns (%d bytes) allocated %.2f MiB", mo.Outputs(), out.Len(), mib)
	if mib > 7 {
		t.Fatalf("Save allocated %.2f MiB, budget 7", mib)
	}
}

// BenchmarkSave writes the corpus-grid-shaped linear bank (1,024
// columns) to io.Discard. Run with -benchmem.
func BenchmarkSave(b *testing.B) {
	mo := gridLinearBank(b)
	b.Run("linear-grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := mo.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// gridLinearBank fits the linear technique on gridData.
func gridLinearBank(tb testing.TB) *MultiOutput {
	tb.Helper()
	x, y := gridData(tb)
	mo := NewMultiOutput(namedFactory(tb, "linear"), 77)
	if err := mo.Fit(x, y); err != nil {
		tb.Fatal(err)
	}
	return mo
}
