// Package mlearn provides the plug-and-play machine-learning suite used for
// leak identification: from-scratch binary classifiers with probabilistic
// output (the scikit-learn predict_proba analog), a multi-output wrapper
// that trains one classifier per network node, and the paper's evaluation
// metric (Hamming score).
//
// Implemented classifiers match the paper's lineup: linear regression
// (ridge), logistic regression, gradient boosting, random forest, a linear
// SVM with Platt-scaled probabilities, and the paper's HybridRSL stack
// (RF + SVM fused through logistic regression).
//
// Classifiers are registered by name in a registry so experiment harnesses
// can select and compose techniques at run time — the paper's
// "plug-and-play analytic engine".
package mlearn

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ErrNotFitted is returned when prediction is attempted before Fit.
var ErrNotFitted = errors.New("mlearn: model not fitted")

// ErrNonFiniteFeature is returned when a feature matrix given to Fit,
// Prepare or MultiOutput.Fit holds a NaN or ±Inf; the error names its
// row and column. Fitting on such a value would make every prediction
// NaN.
var ErrNonFiniteFeature = errors.New("mlearn: non-finite feature")

// Classifier is a binary classifier with probabilistic output.
//
// All implementations in this package share the non-finite input
// contract: PredictProba treats NaN and ±Inf feature values as 0 — the
// neutral "no deviation from baseline" delta, the same substitution the
// dataset pipeline applies to solver output — so a corrupt reading can
// never silently propagate into probabilities.
type Classifier interface {
	// Fit trains on feature rows X and labels y ∈ {0,1}.
	Fit(x [][]float64, y []int) error

	// PredictProba returns P(y=1 | x) in [0, 1].
	PredictProba(x []float64) float64
}

// Factory creates a classifier seeded for deterministic training.
type Factory func(seed int64) Classifier

// Predict thresholds a classifier's probability at 0.5.
func Predict(c Classifier, x []float64) int {
	if c.PredictProba(x) > 0.5 {
		return 1
	}
	return 0
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]Factory)
)

// Register adds a named classifier factory to the plug-and-play registry.
// Registering an existing name replaces it.
func Register(name string, f Factory) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[name] = f
}

// NewByName instantiates a registered classifier.
func NewByName(name string, seed int64) (Classifier, error) {
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("mlearn: unknown classifier %q (have %v)", name, Names())
	}
	return f(seed), nil
}

// Names lists the registered classifier names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("linear", func(seed int64) Classifier { return NewLinearRegression(LinearConfig{}) })
	Register("logistic", func(seed int64) Classifier { return NewLogisticRegression(LogisticConfig{}) })
	Register("gb", func(seed int64) Classifier { return NewGradientBoosting(GBConfig{Seed: seed}) })
	Register("rf", func(seed int64) Classifier { return NewRandomForest(RFConfig{Seed: seed}) })
	Register("svm", func(seed int64) Classifier { return NewSVM(SVMConfig{Seed: seed}) })
	Register("hybrid-rsl", func(seed int64) Classifier { return NewHybridRSL(HybridConfig{Seed: seed}) })
}

// classWeights returns balanced per-class weights (index 0 and 1): each
// class contributes equally to the loss regardless of prevalence. Leak
// labels are heavily imbalanced (a handful of leaking nodes out of
// hundreds), so unweighted training would collapse to "never leak".
func classWeights(y []int) [2]float64 {
	var counts [2]int
	for _, v := range y {
		counts[v]++
	}
	return balancedWeights(counts)
}

// balancedWeights is classWeights from the class counts.
func balancedWeights(counts [2]int) [2]float64 {
	n := float64(counts[0] + counts[1])
	var w [2]float64
	for c := 0; c < 2; c++ {
		if counts[c] == 0 {
			w[c] = 0
			continue
		}
		w[c] = n / (2 * float64(counts[c]))
	}
	return w
}

// cleanFeatures enforces the package's non-finite input contract: NaN
// and ±Inf feature values are replaced with 0. The common all-finite
// path returns x unchanged without allocating; a dirty vector yields a
// sanitized copy, leaving the caller's slice untouched.
func cleanFeatures(x []float64) []float64 {
	for i, v := range x {
		if nonFinite(v) {
			out := make([]float64, len(x))
			copy(out, x[:i])
			for j := i + 1; j < len(x); j++ {
				if v := x[j]; !nonFinite(v) {
					out[j] = v
				}
			}
			return out
		}
	}
	return x
}

func nonFinite(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

// clamp01 clips p into [0, 1].
func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
