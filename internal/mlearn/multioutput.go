package mlearn

import (
	"context"
	"fmt"
)

// MultiOutput transforms the multi-output leak classification into
// independent per-node binary problems (paper Sec. III-B): one classifier
// per node, all trained on the same features. Training parallelizes across
// nodes and shares one Prepared matrix (see FitColumns).
type MultiOutput struct {
	factory Factory
	seed    int64
	models  []Classifier
}

// NewMultiOutput creates a multi-output wrapper around a classifier
// factory. Each node's classifier gets a distinct derived seed.
func NewMultiOutput(factory Factory, seed int64) *MultiOutput {
	return &MultiOutput{factory: factory, seed: seed}
}

// Fit trains one classifier per output column. Y is indexed
// [sample][output] with binary entries. It is shorthand for FitContext
// with context.Background().
func (m *MultiOutput) Fit(x [][]float64, y [][]int) error {
	return m.FitContext(context.Background(), x, y)
}

// FitContext is Fit with cancellation: ctx is checked between column
// dispatches, so in-flight per-node fits finish, the bank is left
// unfitted, and the error is ctx.Err().
func (m *MultiOutput) FitContext(ctx context.Context, x [][]float64, y [][]int) error {
	if len(x) == 0 {
		return fmt.Errorf("mlearn: empty training set")
	}
	if len(x) != len(y) {
		return fmt.Errorf("mlearn: %d feature rows but %d label rows", len(x), len(y))
	}
	outputs := len(y[0])
	if outputs == 0 {
		return fmt.Errorf("mlearn: zero outputs")
	}
	for i, row := range y {
		if len(row) != outputs {
			return fmt.Errorf("mlearn: ragged labels: row %d has %d outputs, want %d", i, len(row), outputs)
		}
	}

	models := make([]Classifier, outputs)
	column := func(v int, dst []int) {
		for i := range y {
			dst[i] = y[i][v]
		}
	}
	if err := FitColumns(ctx, Prepare(x), m.factory, m.seed, 0, outputs, column, models); err != nil {
		m.models = nil
		return err
	}
	m.models = models
	return nil
}

// AssembleMultiOutput reconstructs a fitted bank from per-output
// classifiers trained elsewhere — the streaming/checkpointed training
// path fits junction windows one at a time and assembles the bank at
// the end. Like a loaded bank it can predict but not be refit. Given
// the same seed and the classifiers an in-process Fit would have
// produced, Save output is byte-identical to the fitted bank's.
func AssembleMultiOutput(seed int64, models []Classifier) (*MultiOutput, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("mlearn: empty model bank")
	}
	for v, c := range models {
		if c == nil {
			return nil, fmt.Errorf("mlearn: output %d missing from model bank", v)
		}
	}
	return &MultiOutput{seed: seed, models: append([]Classifier(nil), models...)}, nil
}

// Outputs returns the number of trained outputs.
func (m *MultiOutput) Outputs() int { return len(m.models) }

// MaxSplitFeature returns the largest feature index any tree split in
// the bank reads, or -1 if none does. A loaded bank can evaluate an
// input only when this is below the input's width.
func (m *MultiOutput) MaxSplitFeature() int {
	f := -1
	for _, c := range m.models {
		f = max(f, maxSplitFeature(c))
	}
	return f
}

// maxSplitFeature is MaxSplitFeature for one classifier.
func maxSplitFeature(c Classifier) int {
	var roots []*treeNode
	switch m := c.(type) {
	case *DecisionTree:
		if m.root != nil {
			roots = []*treeNode{m.root}
		}
	case *RandomForest:
		roots = m.trees
	case *GradientBoosting:
		roots = m.trees
	case *HybridRSL:
		if m.rf != nil {
			roots = m.rf.trees
		}
	}
	f := -1
	for _, r := range roots {
		f = max(f, r.maxFeature())
	}
	return f
}

// PredictProba returns P(y_v = 1 | x) for every output v — the paper's
// predict_proba. Non-finite features are treated as 0 (see Classifier);
// sanitization happens once here and the cleaned vector is shared by
// every per-node model.
func (m *MultiOutput) PredictProba(x []float64) ([]float64, error) {
	if m.models == nil {
		return nil, ErrNotFitted
	}
	x = cleanFeatures(x)
	out := make([]float64, len(m.models))
	for v, c := range m.models {
		out[v] = c.PredictProba(x)
	}
	return out, nil
}

// Predict thresholds each output at 0.5 — the paper's predict, yielding
// the set S of nodes predicted to leak.
func (m *MultiOutput) Predict(x []float64) ([]int, error) {
	proba, err := m.PredictProba(x)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(proba))
	for v, p := range proba {
		if p > 0.5 {
			out[v] = 1
		}
	}
	return out, nil
}
