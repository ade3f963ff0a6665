package mlearn

import (
	"math"

	"github.com/aquascale/aquascale/internal/matrix"
)

// scaler standardizes features to zero mean and unit variance, which the
// gradient-based learners (logistic regression, SVM) need because pressure
// deltas (m) and flow deltas (m³/s) differ by orders of magnitude.
type scaler struct {
	mean []float64
	inv  []float64 // 1/std, 1 for constant features
}

func fitScaler(x [][]float64) *scaler {
	d := len(x[0])
	s := &scaler{mean: make([]float64, d), inv: make([]float64, d)}
	n := float64(len(x))
	for _, row := range x {
		for j, v := range row {
			s.mean[j] += v
		}
	}
	for j := range s.mean {
		s.mean[j] /= n
	}
	varAcc := make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			dv := v - s.mean[j]
			varAcc[j] += dv * dv
		}
	}
	for j := range varAcc {
		std := math.Sqrt(varAcc[j] / n)
		if std < 1e-12 {
			s.inv[j] = 1
		} else {
			s.inv[j] = 1 / std
		}
	}
	return s
}

// scaledDot standardizes x on the fly and accumulates the weighted sum
// in index order — exactly the operations of scaler.transformInto
// followed by matrix.Dot, without the standardized copy. The scaler is
// never folded into the weights, which would change floating-point
// rounding.
func scaledDot(w []float64, s *scaler, x []float64) float64 {
	mean, inv := s.mean, s.inv
	sum := 0.0
	for j, wj := range w {
		sum += wj * ((x[j] - mean[j]) * inv[j])
	}
	return sum
}

func (s *scaler) transformInto(dst, x []float64) {
	for j, v := range x {
		dst[j] = (v - s.mean[j]) * s.inv[j]
	}
}

// LinearConfig configures ridge linear regression.
type LinearConfig struct {
	// Lambda is the L2 penalty. Zero means 1e-3.
	Lambda float64
}

// LinearRegression is a ridge least-squares fit of the binary label,
// interpreted as a probability after clipping to [0, 1] — the paper's
// "LinearR" baseline.
type LinearRegression struct {
	cfg    LinearConfig
	scale  *scaler
	w      []float64
	bias   float64
	fitted bool
}

var _ Classifier = (*LinearRegression)(nil)

// NewLinearRegression creates an unfitted ridge regressor.
func NewLinearRegression(cfg LinearConfig) *LinearRegression {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-3
	}
	return &LinearRegression{cfg: cfg}
}

// Fit solves the weighted normal equations (XᵀWX + λI)β = XᵀWy with
// balanced class weights.
func (m *LinearRegression) Fit(x [][]float64, y []int) error {
	return m.fitPrepared(Prepare(x), y)
}

func (m *LinearRegression) fitPrepared(px *Prepared, y []int) error {
	d, err := validateXY(px.x, y)
	if err != nil {
		return err
	}
	var cols []float64
	m.scale, cols = px.standardizedCols()
	a, b := normalEquations(cols, y, d+1)
	for p := 0; p <= d; p++ {
		a.Add(p, p, m.cfg.Lambda*float64(len(y)))
	}
	beta, err := matrix.SolveSPD(a, b)
	if err != nil {
		return err
	}
	m.w = beta[:d]
	m.bias = beta[d]
	m.fitted = true
	return nil
}

// normalEquations returns XᵀWX, lower triangle only (all SolveSPD
// reads), and XᵀWy for the k column-major columns of cols (standardized
// features plus the bias column, n = len(y) rows each), with W the
// balanced class weights.
//
// Each entry is accumulated from +0 over the rows in order, adding
// (w_i·x_ip)·x_iq, or w_i·x_ip over the positive rows for XᵀWy: the
// operations of a row-by-row rank-1 update, so the result is
// bit-identical to one. Loop interchange makes it fast: row p of XᵀW is
// formed once into wp, and entry (p, q) is the dot product of wp with
// column q, four columns at a time in independent accumulators. A
// rank-1 update that skipped x_ip = 0 or multiplied by y_i = 0 would
// only leave out ±0 terms, and adding ±0 never changes an accumulator
// that started at +0, so the bits agree for finite features.
func normalEquations(cols []float64, y []int, k int) (*matrix.Dense, []float64) {
	n := len(y)
	cw := classWeights(y)
	a := matrix.NewDense(k, k)
	b := make([]float64, k)
	wp := make([]float64, n)
	for p := 0; p < k; p++ {
		bp := 0.0
		for i, v := range cols[p*n : (p+1)*n] {
			w := cw[y[i]] * v
			wp[i] = w
			if y[i] == 1 {
				bp += w
			}
		}
		b[p] = bp
		q := p
		for ; q+4 <= k; q += 4 {
			c0 := cols[q*n:][:n]
			c1 := cols[(q+1)*n:][:n]
			c2 := cols[(q+2)*n:][:n]
			c3 := cols[(q+3)*n:][:n]
			var s0, s1, s2, s3 float64
			for i, w := range wp {
				s0 += w * c0[i]
				s1 += w * c1[i]
				s2 += w * c2[i]
				s3 += w * c3[i]
			}
			a.Set(q, p, s0)
			a.Set(q+1, p, s1)
			a.Set(q+2, p, s2)
			a.Set(q+3, p, s3)
		}
		for ; q < k; q++ {
			c := cols[q*n:][:n]
			s := 0.0
			for i, w := range wp {
				s += w * c[i]
			}
			a.Set(q, p, s)
		}
	}
	return a, b
}

// PredictProba returns the clipped linear response. Non-finite features
// are treated as 0 (see Classifier).
func (m *LinearRegression) PredictProba(x []float64) float64 { return m.predictClean(cleanFeatures(x)) }

func (m *LinearRegression) predictClean(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	return clamp01(scaledDot(m.w, m.scale, x) + m.bias)
}

// LogisticConfig configures logistic regression.
type LogisticConfig struct {
	// Lambda is the L2 penalty. Zero means 1e-4.
	Lambda float64

	// LearningRate for full-batch gradient descent. Zero means 0.5.
	LearningRate float64

	// Epochs of gradient descent. Zero means 300.
	Epochs int
}

// LogisticRegression is L2-regularized logistic regression trained with
// full-batch gradient descent over standardized features — the paper's
// "LogisticR" and the fusion layer of HybridRSL.
type LogisticRegression struct {
	cfg    LogisticConfig
	scale  *scaler
	w      []float64
	bias   float64
	fitted bool
}

var _ Classifier = (*LogisticRegression)(nil)

// NewLogisticRegression creates an unfitted logistic regressor.
func NewLogisticRegression(cfg LogisticConfig) *LogisticRegression {
	if cfg.Lambda <= 0 {
		cfg.Lambda = 1e-4
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.5
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 300
	}
	return &LogisticRegression{cfg: cfg}
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// Fit runs weighted batch gradient descent on the logistic loss.
func (m *LogisticRegression) Fit(x [][]float64, y []int) error {
	return m.fitPrepared(Prepare(x), y)
}

func (m *LogisticRegression) fitPrepared(px *Prepared, y []int) error {
	d, err := validateXY(px.x, y)
	if err != nil {
		return err
	}
	var xs [][]float64
	m.scale, xs = px.standardized()
	cw := classWeights(y)

	totalW := 0.0
	for _, v := range y {
		totalW += cw[v]
	}
	m.w = make([]float64, d)
	m.bias = 0
	grad := make([]float64, d)
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gBias := 0.0
		for i, xi := range xs {
			p := sigmoid(matrix.Dot(m.w, xi) + m.bias)
			g := cw[y[i]] * (p - float64(y[i]))
			matrix.AxpY(g, xi, grad)
			gBias += g
		}
		inv := 1 / totalW
		lr := m.cfg.LearningRate
		for j := range m.w {
			m.w[j] -= lr * (grad[j]*inv + m.cfg.Lambda*m.w[j])
		}
		m.bias -= lr * gBias * inv
	}
	m.fitted = true
	return nil
}

// PredictProba returns the sigmoid response. Non-finite features are
// treated as 0 (see Classifier).
func (m *LogisticRegression) PredictProba(x []float64) float64 {
	return m.predictClean(cleanFeatures(x))
}

func (m *LogisticRegression) predictClean(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	return sigmoid(scaledDot(m.w, m.scale, x) + m.bias)
}
