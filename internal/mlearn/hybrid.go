package mlearn

import (
	"fmt"
	"math"

	"github.com/aquascale/aquascale/internal/matrix"
)

// HybridConfig configures the HybridRSL stack.
type HybridConfig struct {
	// RF configures the random-forest leg (Seed is derived).
	RF RFConfig

	// SVM configures the SVM leg (Seed is derived).
	SVM SVMConfig

	// Meta configures the logistic fusion layer.
	Meta LogisticConfig

	// CrossFitMeta trains the fusion layer on out-of-sample base-learner
	// probabilities (RF out-of-bag + SVM 2-fold cross-fitting) instead of
	// the default in-sample ones (the paper's literal Fig-4 workflow).
	// In-sample is the default because it matches the calibration of the
	// deployed full models — the fusion threshold is applied to full-model
	// probabilities at prediction time, and out-of-sample meta-features
	// are systematically softer, which makes the stack over-predict.
	CrossFitMeta bool

	// Seed drives fold assignment and the base learners.
	Seed int64
}

// HybridRSL is the paper's hybrid classifier: a Random forest and an Svm
// trained on the same data, fused through Logistic regression over their
// predicted probabilities (Fig. 4). RF and SVM stay robust as sensor
// coverage shrinks; the logistic fusion has low variance and resists
// overfitting.
type HybridRSL struct {
	cfg    HybridConfig
	rf     *RandomForest
	svm    *SVM
	meta   *LogisticRegression
	fitted bool
}

var _ Classifier = (*HybridRSL)(nil)

// NewHybridRSL creates an unfitted hybrid stack.
func NewHybridRSL(cfg HybridConfig) *HybridRSL {
	return &HybridRSL{cfg: cfg}
}

// Fit trains both legs, builds the meta-features, and fits the logistic
// fusion layer.
func (m *HybridRSL) Fit(x [][]float64, y []int) error {
	return m.fitPrepared(Prepare(x), y, &workspace{})
}

// fitPrepared fits both full legs over px's shared bins and scaling;
// the cross-fitting folds are row subsets and fit on their own.
func (m *HybridRSL) fitPrepared(px *Prepared, y []int, ws *workspace) error {
	x := px.x
	if _, err := px.check(y); err != nil {
		return err
	}
	n := len(x)

	// RF leg: OOB probabilities double as meta-features.
	rfCfg := m.cfg.RF
	rfCfg.Seed = m.cfg.Seed + 101
	m.rf = NewRandomForest(rfCfg)
	if err := m.rf.fitPrepared(px, y, ws); err != nil {
		return fmt.Errorf("hybrid-rsl: rf leg: %w", err)
	}

	// SVM leg: 2-fold cross-fitted probabilities.
	svmProba := make([]float64, n)
	crossFit := m.cfg.CrossFitMeta && n >= 8 && hasBothClassesInFolds(y)
	if crossFit {
		for fold := 0; fold < 2; fold++ {
			var trX [][]float64
			var trY []int
			var teIdx []int
			for i := 0; i < n; i++ {
				if i%2 == fold {
					teIdx = append(teIdx, i)
				} else {
					trX = append(trX, x[i])
					trY = append(trY, y[i])
				}
			}
			cfg := m.cfg.SVM
			cfg.Seed = m.cfg.Seed + int64(211+fold)
			leg := NewSVM(cfg)
			if err := leg.Fit(trX, trY); err != nil {
				return fmt.Errorf("hybrid-rsl: svm fold %d: %w", fold, err)
			}
			for _, i := range teIdx {
				svmProba[i] = leg.PredictProba(x[i])
			}
		}
	}

	svmCfg := m.cfg.SVM
	svmCfg.Seed = m.cfg.Seed + 307
	m.svm = NewSVM(svmCfg)
	if err := m.svm.fitPrepared(px, y, ws); err != nil {
		return fmt.Errorf("hybrid-rsl: svm leg: %w", err)
	}
	if !crossFit {
		// In-sample probabilities from the shared standardized rows.
		_, xs := px.standardized()
		for i := range svmProba {
			svmProba[i] = m.svm.probaScaled(xs[i])
		}
	}

	meta := make([][]float64, n)
	for i := 0; i < n; i++ {
		rfP := m.rf.PredictProba(x[i])
		if m.cfg.CrossFitMeta {
			if p, ok := m.rf.OOBProba(i); ok {
				rfP = p
			}
		}
		mf := metaFeatures(rfP, svmProba[i])
		meta[i] = mf[:]
	}
	// The out-of-bag estimates are training-only and never persisted;
	// release them rather than hold them for the profile's lifetime.
	m.rf.oob, m.rf.hasOO = nil, nil
	m.meta = NewLogisticRegression(m.cfg.Meta)
	if err := m.meta.Fit(meta, y); err != nil {
		return fmt.Errorf("hybrid-rsl: meta layer: %w", err)
	}
	m.fitted = true
	return nil
}

// hasBothClassesInFolds reports whether both parity folds contain both
// classes, the precondition for 2-fold cross fitting.
func hasBothClassesInFolds(y []int) bool {
	var count [2][2]int // [fold][class]
	for i, v := range y {
		count[i%2][v]++
	}
	for fold := 0; fold < 2; fold++ {
		if count[fold][0] == 0 || count[fold][1] == 0 {
			return false
		}
	}
	return true
}

// metaWidth is the width of the meta layer's input (see metaFeatures).
const metaWidth = 4

// metaFeatures maps the two legs' probabilities into the fusion layer's
// feature space: raw probabilities plus clipped log-odds. The logit
// features let the logistic layer implement a calibrated opinion pool; the
// raw probabilities preserve threshold information.
func metaFeatures(rfP, svmP float64) [metaWidth]float64 {
	return [metaWidth]float64{rfP, svmP, clippedLogit(rfP), clippedLogit(svmP)}
}

func clippedLogit(p float64) float64 {
	return math.Log(clippedOdds(p))
}

// clippedOdds is the odds p/(1−p) of p clipped into [ε, 1−ε], the
// argument of clippedLogit's Log.
func clippedOdds(p float64) float64 {
	const eps = 1e-3
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return p / (1 - p)
}

// PredictProba fuses the two legs through the logistic layer.
// Non-finite features are treated as 0 (see Classifier).
func (m *HybridRSL) PredictProba(x []float64) float64 { return m.predictClean(cleanFeatures(x)) }

func (m *HybridRSL) predictClean(x []float64) float64 {
	if !m.fitted {
		return 0
	}
	var out [1]float64
	predictHybridChunk([]*HybridRSL{m}, x, out[:])
	return out[0]
}

// hybridChunk is how many hybrid columns predictHybridChunk evaluates
// together, in stack buffers.
const hybridChunk = 32

// hybridBank reports whether every model is a fitted *HybridRSL, the
// banks predictHybrids evaluates.
func hybridBank(models []Classifier) bool {
	for _, c := range models {
		if h, ok := c.(*HybridRSL); !ok || !h.fitted {
			return false
		}
	}
	return true
}

// predictHybrids writes the fused probability of every model into out,
// hybridChunk columns at a time. Every model must be a fitted
// *HybridRSL (see hybridBank); x must be clean.
func predictHybrids(models []Classifier, x, out []float64) {
	var chunk [hybridChunk]*HybridRSL
	for lo := 0; lo < len(models); lo += hybridChunk {
		ms := chunk[:min(hybridChunk, len(models)-lo)]
		for i := range ms {
			ms[i] = models[lo+i].(*HybridRSL)
		}
		predictHybridChunk(ms, x, out[lo:lo+len(ms)])
	}
}

// predictHybridChunk writes the fused probability of each fitted hybrid
// in ms (at most hybridChunk) into out for the clean vector x. It is the
// one hybrid evaluation: a single column is a chunk of one. Every column
// runs the operations of its legs' own predictClean in their order, so
// the bits do not depend on the chunk: the SVM margins (four columns
// side by side, each on its own accumulator, scaler and scaledDot's
// order), the Platt sigmoids through one sigmoidExps pass, the forests,
// both clipped logits through one matrix.LogTo pass over the clipped
// odds, the meta layers' dots and their sigmoids through one more
// sigmoidExps pass. ExpTo and LogTo give math.Exp's and math.Log's bits.
func predictHybridChunk(ms []*HybridRSL, x, out []float64) {
	var (
		z, e      [hybridChunk]float64
		rfP, svmP [hybridChunk]float64
		logit     [2 * hybridChunk]float64
	)
	k := len(ms)
	c := 0
	for ; c+4 <= k; c += 4 {
		plattArgs4(ms[c].svm, ms[c+1].svm, ms[c+2].svm, ms[c+3].svm, x, (*[4]float64)(z[c:c+4]))
	}
	for ; c < k; c++ {
		z[c] = ms[c].svm.plattArg(x)
	}
	sigmoidExps(e[:k], z[:k])
	for c, m := range ms {
		if m.svm.fitted {
			svmP[c] = sigmoidAt(z[c], e[c])
		}
	}
	for c, m := range ms {
		rfP[c] = m.rf.predictClean(x)
	}
	for c := range ms {
		logit[2*c] = clippedOdds(rfP[c])
		logit[2*c+1] = clippedOdds(svmP[c])
	}
	matrix.LogTo(logit[:2*k], logit[:2*k])
	// The meta layer skips sanitization: both legs return probabilities.
	for c, m := range ms {
		z[c] = 0
		if meta := m.meta; meta.fitted {
			mf := [metaWidth]float64{rfP[c], svmP[c], logit[2*c], logit[2*c+1]}
			z[c] = scaledDot(meta.w, meta.scale, mf[:]) + meta.bias
		}
	}
	sigmoidExps(e[:k], z[:k])
	for c, m := range ms {
		out[c] = 0
		if m.meta.fitted {
			out[c] = sigmoidAt(z[c], e[c])
		}
	}
}
