package mlearn

import (
	"math"
	"slices"

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

// Fit solves the weighted normal equations (XᵀWX + λnI)β = XᵀWy with
// balanced class weights.
func (m *LinearRegression) Fit(x [][]float64, y []int) error {
	return m.fitPrepared(Prepare(x), y, &workspace{})
}

// fitPrepared assembles the normal equations from px's shared Gram
// matrix G. The balanced weights take two values, so with M the
// majority class and m the minority class (the positives on a tie)
//
//	XᵀWX = w_M·G + (w_m − w_M)·Σ_{i∈m} x̃ᵢx̃ᵢᵀ,
//
// where w_m ≥ w_M: a positive combination of positive-semidefinite
// terms, so nothing cancels. XᵀWy is w_1 times the sum of the positive
// rows: the minority sum itself, or G's bias row (the column sums)
// minus it. A column costs O(r·k²) for its r minority rows plus the
// O(k³) solve instead of O(n·k²), and writes only into ws.
func (m *LinearRegression) fitPrepared(px *Prepared, y []int, ws *workspace) error {
	d, err := px.check(y)
	if err != nil {
		return err
	}
	k := d + 1
	var g []float64
	m.scale, g = px.gramMatrix()

	// One pass over y counts the classes and collects the positive rows,
	// the minority in almost every leak column. A column whose negatives
	// are fewer (a node leaking in most samples) takes a second pass for
	// them. The minority class is the positives on a tie.
	ws.minor = ws.minor[:0]
	for i, v := range y {
		if v == 1 {
			ws.minor = append(ws.minor, i)
		}
	}
	counts := [2]int{len(y) - len(ws.minor), len(ws.minor)}
	cw := balancedWeights(counts)
	minor := 1
	if counts[0] < counts[1] {
		minor = 0
		ws.minor = ws.minor[:0]
		for i, v := range y {
			if v == 0 {
				ws.minor = append(ws.minor, i)
			}
		}
	}
	wMajor, c := cw[1-minor], cw[minor]-cw[1-minor]

	// Gather the minority rows, standardized exactly as G's columns
	// were, column-major: feature p of minority row t is rows[p·r+t].
	r := len(ws.minor)
	ws.rows = slices.Grow(ws.rows[:0], k*r)
	rows := ws.rows[:k*r]
	for p := 0; p < d; p++ {
		mean, inv := m.scale.mean[p], m.scale.inv[p]
		for t, i := range ws.minor {
			rows[p*r+t] = (px.x[i][p] - mean) * inv
		}
	}
	for t := range ws.minor {
		rows[d*r+t] = 1
	}

	if ws.a == nil || ws.a.Rows() != k {
		ws.a, ws.b = matrix.NewDense(k, k), make([]float64, k)
	}
	ridge := m.cfg.Lambda * float64(len(y))
	// Entry (p, q) is wMajor·G[p][q] + c·Σ_t rows[p][t]·rows[q][t], the
	// sum in t order; four q run side by side, sharing each load of row p.
	for p := 0; p < k; p++ {
		rp, ap, gp := rows[p*r:(p+1)*r], ws.a.Row(p), g[p*k:(p+1)*k]
		q := 0
		for ; q+4 <= p+1; q += 4 {
			r0, r1, r2, r3 := rows[q*r:q*r+len(rp)], rows[(q+1)*r:(q+1)*r+len(rp)], rows[(q+2)*r:(q+2)*r+len(rp)], rows[(q+3)*r:(q+3)*r+len(rp)]
			s0, s1, s2, s3 := 0.0, 0.0, 0.0, 0.0
			for t, v := range rp {
				s0 += v * r0[t]
				s1 += v * r1[t]
				s2 += v * r2[t]
				s3 += v * r3[t]
			}
			ap[q] = wMajor*gp[q] + c*s0
			ap[q+1] = wMajor*gp[q+1] + c*s1
			ap[q+2] = wMajor*gp[q+2] + c*s2
			ap[q+3] = wMajor*gp[q+3] + c*s3
		}
		for ; q <= p; q++ {
			rq := rows[q*r : (q+1)*r]
			s := 0.0
			for t, v := range rp {
				s += v * rq[t]
			}
			ap[q] = wMajor*gp[q] + c*s
		}
		ap[p] += ridge
		sum := 0.0
		for _, v := range rp {
			sum += v
		}
		if minor == 1 {
			ws.b[p] = cw[1] * sum
		} else {
			ws.b[p] = cw[1] * (g[d*k+p] - sum)
		}
	}
	if err := ws.chol.Refactorize(ws.a); err != nil {
		return err
	}
	if err := ws.chol.SolveTo(ws.b, ws.b); err != nil {
		return err
	}
	m.w = append([]float64(nil), ws.b[:d]...)
	m.bias = ws.b[d]
	m.fitted = true
	return nil
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
	return m.fitPrepared(Prepare(x), y, &workspace{})
}

func (m *LogisticRegression) fitPrepared(px *Prepared, y []int, _ *workspace) error {
	d, err := px.check(y)
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
