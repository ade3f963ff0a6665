package mlearn

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func saveBytes(t *testing.T, c Classifier) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveClassifier(&buf, c); err != nil {
		t.Fatalf("SaveClassifier: %v", err)
	}
	return buf.Bytes()
}

// TestFitColumnsMatchesPlainFit pins the shared-preprocessing contract:
// a column fitted over a Prepared matrix, alongside other columns, is
// bit-identical to the same classifier fitted alone with plain Fit.
func TestFitColumnsMatchesPlainFit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, d, outputs = 120, 5, 6
	x := make([][]float64, n)
	y := make([][]int, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64() * float64(j+1)
		}
		y[i] = make([]int, outputs)
		for v := range y[i] {
			if x[i][v%d]+rng.NormFloat64() > 0.5 {
				y[i][v] = 1
			}
		}
	}
	column := func(v int, dst []int) {
		for i := range y {
			dst[i] = y[i][v]
		}
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			factory := namedFactory(t, name)
			models := make([]Classifier, outputs)
			if err := FitColumns(context.Background(), Prepare(x), factory, 9, 2, outputs, column, models); err != nil {
				t.Fatalf("FitColumns: %v", err)
			}
			if models[0] != nil || models[1] != nil {
				t.Fatal("FitColumns wrote outside [lo, hi)")
			}
			for v := 2; v < outputs; v++ {
				col := make([]int, n)
				column(v, col)
				alone := factory(9 + int64(v)*31337)
				if err := alone.Fit(x, col); err != nil {
					t.Fatalf("Fit: %v", err)
				}
				if !bytes.Equal(saveBytes(t, models[v]), saveBytes(t, alone)) {
					t.Fatalf("output %d differs from a plain Fit", v)
				}
			}
		})
	}
}

// TestFitColumnsLinearMatchesPlainFit fits many ridge columns over one
// Prepared matrix, so each worker's workspace is reused across columns
// whose minority is the positives, the negatives, tied or empty and
// whose minority row count grows and shrinks, and requires every column
// to be bit-identical to a plain Fit with a fresh workspace.
func TestFitColumnsLinearMatchesPlainFit(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, d, outputs = 150, 7, 96
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64() * float64(j+1)
		}
	}
	kinds := []string{"minority-1", "minority-0", "tied", "all-0", "all-1"}
	labels := make([][]int, outputs)
	for v := range labels {
		labels[v] = ridgeLabels(n, kinds[v%len(kinds)], rng)
	}
	column := func(v int, dst []int) { copy(dst, labels[v]) }
	factory := namedFactory(t, "linear")
	models := make([]Classifier, outputs)
	if err := FitColumns(context.Background(), Prepare(x), factory, 5, 0, outputs, column, models); err != nil {
		t.Fatalf("FitColumns: %v", err)
	}
	for v := range models {
		alone := factory(5 + int64(v)*31337)
		if err := alone.Fit(x, labels[v]); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		if !bytes.Equal(saveBytes(t, models[v]), saveBytes(t, alone)) {
			t.Fatalf("output %d (%s) differs from a plain Fit", v, kinds[v%len(kinds)])
		}
	}
}

// recordingClassifier is a classifier from outside the package: it only
// has the public interface.
type recordingClassifier struct{ rows int }

func (r *recordingClassifier) Fit(x [][]float64, y []int) error {
	r.rows = len(x)
	if len(y) != len(x) {
		return errors.New("label column length mismatch")
	}
	return nil
}

func (r *recordingClassifier) PredictProba([]float64) float64 { return 0 }

func TestFitColumnsPlainFitForForeignClassifier(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	models := make([]Classifier, 2)
	factory := func(int64) Classifier { return &recordingClassifier{} }
	if err := FitColumns(context.Background(), Prepare(x), factory, 0, 0, 2, func(int, []int) {}, models); err != nil {
		t.Fatalf("FitColumns: %v", err)
	}
	for v, c := range models {
		if got := c.(*recordingClassifier).rows; got != len(x) {
			t.Fatalf("output %d: Fit saw %d rows, want %d", v, got, len(x))
		}
	}
}

func TestFitColumnsReportsFirstFailingColumn(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	column := func(v int, dst []int) {
		for i := range dst {
			dst[i] = i % 2
			if v >= 2 {
				dst[i] = 2 // not binary
			}
		}
	}
	models := make([]Classifier, 4)
	factory := func(seed int64) Classifier { return NewLogisticRegression(LogisticConfig{}) }
	err := FitColumns(context.Background(), Prepare(x), factory, 0, 0, 4, column, models)
	if err == nil || !strings.HasPrefix(err.Error(), "output 2:") {
		t.Fatalf("err = %v, want output 2's error", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := FitColumns(ctx, Prepare(x), factory, 0, 0, 4, column, models); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled err = %v", err)
	}
}

// TestHybridReleasesOOB: the stack's forest drops its out-of-bag
// estimates once the meta features are built, while a standalone forest
// keeps them.
func TestHybridReleasesOOB(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := blobs(rng, 80, 0.4)
	for _, crossFit := range []bool{false, true} {
		h := NewHybridRSL(HybridConfig{Seed: 1, CrossFitMeta: crossFit})
		if err := h.Fit(x, y); err != nil {
			t.Fatalf("Fit: %v", err)
		}
		if h.rf.oob != nil || h.rf.hasOO != nil {
			t.Fatalf("crossFit=%v: hybrid forest still holds OOB arrays", crossFit)
		}
	}
	rf := NewRandomForest(RFConfig{Seed: 1})
	if err := rf.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if rf.oob == nil {
		t.Fatal("standalone forest lost its OOB estimates")
	}
}
