package mlearn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/aquascale/aquascale/internal/matrix"
	"github.com/aquascale/aquascale/internal/par"
	"github.com/aquascale/aquascale/internal/randsrc"
)

// Prepared is a feature matrix shared by every output column fitted over
// it. Phase I fits one classifier per junction on the same X, so the
// preprocessing each classifier would otherwise redo — quantile binning
// for the tree learners, standardization for the gradient-based ones,
// the Gram matrix for the ridge fit — is computed lazily, once, and read
// concurrently by every column and worker. Classifiers see exactly the
// values they would have computed themselves, so fitted models are
// bit-identical to plain Fit.
type Prepared struct {
	x   [][]float64
	d   int   // features per row
	err error // shape or finiteness fault found by Prepare

	binOnce sync.Once
	bin     *binner

	scaleOnce sync.Once
	scale     *scaler

	rowsOnce sync.Once
	scaled   [][]float64

	gramOnce sync.Once
	gram     []float64
}

// Prepare wraps x for FitColumns, checking its shape and finiteness
// once: a fit over a Prepared matrix with a fault returns that fault
// (ErrNonFiniteFeature for a NaN or ±Inf). x must not be modified while
// the Prepared matrix is in use.
func Prepare(x [][]float64) *Prepared {
	p := &Prepared{x: x}
	p.d, p.err = validateX(x)
	return p
}

// validateX checks the feature-matrix preconditions of every fit: a
// non-empty matrix of equal-width, non-empty, finite rows.
func validateX(x [][]float64) (features int, err error) {
	if len(x) == 0 {
		return 0, errors.New("mlearn: empty training set")
	}
	features = len(x[0])
	if features == 0 {
		return 0, errors.New("mlearn: zero-width feature rows")
	}
	for i, row := range x {
		if len(row) != features {
			return 0, fmt.Errorf("mlearn: ragged features: row %d has %d, want %d", i, len(row), features)
		}
		for j, v := range row {
			if nonFinite(v) {
				return 0, fmt.Errorf("%w: row %d, column %d is %v", ErrNonFiniteFeature, i, j, v)
			}
		}
	}
	return features, nil
}

// check returns the matrix's shape or finiteness fault, or else the
// label column's, and the feature count.
func (p *Prepared) check(y []int) (features int, err error) {
	if p.err != nil {
		return 0, p.err
	}
	if len(y) != len(p.x) {
		return 0, fmt.Errorf("mlearn: %d feature rows but %d labels", len(p.x), len(y))
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return 0, fmt.Errorf("mlearn: label %d at row %d is not binary", label, i)
		}
	}
	return p.d, nil
}

// bins returns the matrix's quantile bins, computing them on first use.
func (p *Prepared) bins() *binner {
	p.binOnce.Do(func() { p.bin = newBinner(p.x) })
	return p.bin
}

// scaler returns the matrix's standardizing scaler, fitting it on first
// use. Callers must not modify it.
func (p *Prepared) scaler() *scaler {
	p.scaleOnce.Do(func() { p.scale = fitScaler(p.x) })
	return p.scale
}

// standardized returns the matrix's scaler and its rows transformed by
// it (one backing array), computing both on first use. Callers must not
// modify either.
func (p *Prepared) standardized() (*scaler, [][]float64) {
	s := p.scaler()
	p.rowsOnce.Do(func() {
		flat := make([]float64, len(p.x)*p.d)
		p.scaled = make([][]float64, len(p.x))
		for i, row := range p.x {
			p.scaled[i] = flat[i*p.d : (i+1)*p.d : (i+1)*p.d]
			s.transformInto(p.scaled[i], row)
		}
	})
	return s, p.scaled
}

// gramRows is how many rows of standardized values gramMatrix holds at
// once, column-major: 256·k values, against k·n for a full copy.
const gramRows = 256

// gramMatrix returns the matrix's scaler and the lower triangle of the
// unweighted Gram matrix G = Σᵢ x̃ᵢx̃ᵢᵀ of its standardized rows x̃ᵢ, each
// extended with a trailing 1 for the bias: k×k row-major with k = d+1,
// entry (p, q ≤ p) at [p·k+q]. Its bias row holds the column sums, and
// G[d][d] = n. Computed on first use; callers must not modify either
// result.
//
// The standardized values are computed exactly as scaler.transformInto
// computes them, gramRows rows at a time into a column-major block, so
// each block's share of entry (p, q) is an in-row-order dot product of
// two contiguous columns, four q at a time in independent accumulators,
// and G adds the blocks' shares in row order.
func (p *Prepared) gramMatrix() (*scaler, []float64) {
	s := p.scaler()
	p.gramOnce.Do(func() {
		n, d := len(p.x), p.d
		k := d + 1
		g := make([]float64, k*k)
		cols := make([]float64, k*min(n, gramRows))
		for lo := 0; lo < n; lo += gramRows {
			block := p.x[lo:min(lo+gramRows, n)]
			m := len(block)
			for j := 0; j < d; j++ {
				col, mean, inv := cols[j*m:(j+1)*m], s.mean[j], s.inv[j]
				for i, row := range block {
					col[i] = (row[j] - mean) * inv
				}
			}
			bias := cols[d*m : k*m]
			for i := range bias {
				bias[i] = 1
			}
			for a := 0; a < k; a++ {
				ca := cols[a*m:][:m]
				b := a
				for ; b+4 <= k; b += 4 {
					c0 := cols[b*m:][:m]
					c1 := cols[(b+1)*m:][:m]
					c2 := cols[(b+2)*m:][:m]
					c3 := cols[(b+3)*m:][:m]
					var s0, s1, s2, s3 float64
					for i, v := range ca {
						s0 += v * c0[i]
						s1 += v * c1[i]
						s2 += v * c2[i]
						s3 += v * c3[i]
					}
					g[b*k+a] += s0
					g[(b+1)*k+a] += s1
					g[(b+2)*k+a] += s2
					g[(b+3)*k+a] += s3
				}
				for ; b < k; b++ {
					cb := cols[b*m:][:m]
					sum := 0.0
					for i, v := range ca {
						sum += v * cb[i]
					}
					g[b*k+a] += sum
				}
			}
		}
		p.gram = g
	})
	return s, p.gram
}

// workspace is one fitting worker's scratch memory, reused across the
// columns it fits so a column allocates only its model. Fit passes a
// fresh one.
type workspace struct {
	labels []int // FitColumns' label column

	// The fits' random streams, made on first use and re-seeded for each
	// use: rng for a column's own draws (bootstrap rows, Pegasos order,
	// boosting subsample) and tree for a forest's per-tree feature
	// sampling, which runs while rng is still drawing bootstraps.
	rng, tree *rand.Rand

	// Ridge fit (LinearRegression): the normal matrix and its factor,
	// the minority rows' indices and standardized values, and the
	// right-hand side the solve overwrites with β.
	a     *matrix.Dense
	chol  matrix.Cholesky
	minor []int
	rows  []float64
	b     []float64
}

// seeded returns *r re-seeded with seed, creating it on first use; the
// stream is rand.New(rand.NewSource(seed))'s.
func seeded(r **rand.Rand, seed int64) *rand.Rand {
	if *r == nil {
		*r = rand.New(randsrc.New(seed))
	} else {
		(*r).Seed(seed)
	}
	return *r
}

// preparedFitter is implemented by the package's classifiers: Fit over a
// Prepared matrix, reusing its shared preprocessing and the worker's
// scratch memory. Fit(x, y) is fitPrepared(Prepare(x), y, &workspace{}).
type preparedFitter interface {
	fitPrepared(px *Prepared, y []int, ws *workspace) error
}

// FitColumns fits one classifier per output column v in [lo, hi) over
// px, storing it in models[v]. column(v, dst) fills dst (one entry per
// row of px) with column v's binary labels; it is called concurrently.
// Column v's classifier is factory(seed + v·31337), so a column's model
// does not depend on which range or worker fitted it. Columns are fitted
// in parallel across CPUs; classifiers of this package share px's
// preprocessing and reuse their worker's label column and workspace,
// any other registered classifier gets plain Fit on a fresh copy of
// its labels.
//
// A fault Prepare found in px is returned before any column is fitted.
// ctx is checked between column dispatches: on cancellation in-flight
// fits finish and the error is ctx.Err(). Otherwise the first failing
// column, in column order, is reported.
func FitColumns(ctx context.Context, px *Prepared, factory Factory, seed int64, lo, hi int, column func(v int, dst []int), models []Classifier) error {
	if px.err != nil {
		return px.err
	}
	n := hi - lo
	errs := make([]error, n)
	work := make([]func(int), par.Workers(0, n))
	for w := range work {
		ws := &workspace{labels: make([]int, len(px.x))}
		work[w] = func(i int) {
			v := lo + i
			col := ws.labels
			column(v, col)
			c := factory(seed + int64(v)*31337)
			var err error
			if pf, ok := c.(preparedFitter); ok {
				err = pf.fitPrepared(px, col, ws)
			} else {
				// A foreign classifier may keep its labels.
				err = c.Fit(px.x, append([]int(nil), col...))
			}
			if err != nil {
				errs[i] = fmt.Errorf("output %d: %w", v, err)
				return
			}
			models[v] = c
		}
	}
	if par.Each(ctx, n, work) < n {
		return ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
