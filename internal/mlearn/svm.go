package mlearn

import (
	"math"
	"math/rand"

	"github.com/aquascale/aquascale/internal/matrix"
)

// SVMConfig configures the linear SVM.
type SVMConfig struct {
	// Lambda is the regularization strength of the primal objective.
	// Zero means 1e-3.
	Lambda float64

	// Epochs of Pegasos stochastic subgradient descent. Zero means 40.
	Epochs int

	// Seed drives sampling order.
	Seed int64
}

// SVM is a linear soft-margin support vector machine trained with the
// Pegasos stochastic subgradient method — the paper's "SVM". Probabilities
// come from Platt scaling: a logistic sigmoid fitted to the decision
// margins.
type SVM struct {
	cfg    SVMConfig
	scale  *scaler
	w      []float64
	bias   float64
	plattA float64
	plattB float64
	fitted bool
}

var _ Classifier = (*SVM)(nil)

// NewSVM creates an unfitted SVM.
func NewSVM(cfg SVMConfig) *SVM {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-3
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 40
	}
	return &SVM{cfg: cfg}
}

// Fit runs Pegasos with balanced class weights, then fits the Platt
// sigmoid on the training margins.
func (m *SVM) Fit(x [][]float64, y []int) error {
	return m.fitPrepared(Prepare(x), y, &workspace{})
}

func (m *SVM) fitPrepared(px *Prepared, y []int, _ *workspace) error {
	d, err := px.check(y)
	if err != nil {
		return err
	}
	var xs [][]float64
	m.scale, xs = px.standardized()
	cw := classWeights(y)
	n := len(xs)
	sign := make([]float64, n)
	for i := range xs {
		if y[i] == 1 {
			sign[i] = 1
		} else {
			sign[i] = -1
		}
	}

	rng := rand.New(rand.NewSource(m.cfg.Seed))
	m.w = make([]float64, d)
	m.bias = 0
	lambda := m.cfg.Lambda
	t := 0
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		for _, i := range rng.Perm(n) {
			t++
			eta := 1 / (lambda * float64(t))
			margin := sign[i] * (matrix.Dot(m.w, xs[i]) + m.bias)
			matrix.Scale(1-eta*lambda, m.w)
			if margin < 1 {
				c := eta * cw[y[i]] * sign[i]
				matrix.AxpY(c, xs[i], m.w)
				m.bias += c
			}
		}
	}

	// Platt scaling on the training margins, with the standard label
	// smoothing to avoid overconfidence.
	margins := make([]float64, n)
	for i := range xs {
		margins[i] = matrix.Dot(m.w, xs[i]) + m.bias
	}
	m.plattA, m.plattB = fitPlatt(margins, y)
	m.fitted = true
	return nil
}

// fitPlatt fits P(y=1|m) = sigmoid(A·m + B) by gradient descent on the
// cross-entropy with Platt's smoothed targets.
func fitPlatt(margins []float64, y []int) (a, b float64) {
	nPos, nNeg := 0, 0
	for _, v := range y {
		if v == 1 {
			nPos++
		} else {
			nNeg++
		}
	}
	tPos := (float64(nPos) + 1) / (float64(nPos) + 2)
	tNeg := 1 / (float64(nNeg) + 2)
	targets := make([]float64, len(y))
	for i, v := range y {
		if v == 1 {
			targets[i] = tPos
		} else {
			targets[i] = tNeg
		}
	}
	a, b = 1, 0
	lr := 0.01
	z := make([]float64, len(margins))
	e := make([]float64, len(margins))
	for epoch := 0; epoch < 500; epoch++ {
		for i, mgn := range margins {
			z[i] = a*mgn + b
		}
		sigmoidExps(e, z)
		var ga, gb float64
		for i, mgn := range margins {
			p := sigmoidAt(z[i], e[i])
			g := p - targets[i]
			ga += g * mgn
			gb += g
		}
		inv := 1 / float64(len(margins))
		a -= lr * ga * inv
		b -= lr * gb * inv
	}
	if math.IsNaN(a) || math.IsNaN(b) {
		return 1, 0
	}
	return a, b
}

// PredictProba returns the Platt-scaled margin. Non-finite features are
// treated as 0 (see Classifier).
func (m *SVM) PredictProba(x []float64) float64 { return m.predictClean(cleanFeatures(x)) }

func (m *SVM) predictClean(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	margin := scaledDot(m.w, m.scale, x) + m.bias
	return sigmoid(m.plattA*margin + m.plattB)
}

// probaScaled is PredictProba for a row already standardized by m's
// scaler.
func (m *SVM) probaScaled(xs []float64) float64 {
	margin := matrix.Dot(m.w, xs) + m.bias
	return sigmoid(m.plattA*margin + m.plattB)
}

// Margin returns the raw decision value (distance from the separating
// hyperplane in scaled feature space).
func (m *SVM) Margin(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	return scaledDot(m.w, m.scale, cleanFeatures(x)) + m.bias
}
