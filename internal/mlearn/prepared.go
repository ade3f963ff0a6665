package mlearn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Prepared is a feature matrix shared by every output column fitted over
// it. Phase I fits one classifier per junction on the same X, so the
// preprocessing each classifier would otherwise redo — quantile binning
// for the tree learners, standardization for the gradient-based ones —
// is computed lazily, once, and read concurrently by every column and
// worker. Classifiers see exactly the values they would have computed
// themselves, so fitted models are bit-identical to plain Fit.
type Prepared struct {
	x [][]float64

	binOnce sync.Once
	bin     *binner

	scaleOnce sync.Once
	scale     *scaler

	rowsOnce sync.Once
	scaled   [][]float64

	colsOnce sync.Once
	cols     []float64
}

// Prepare wraps x for FitColumns. x must not be modified while the
// Prepared matrix is in use.
func Prepare(x [][]float64) *Prepared {
	return &Prepared{x: x}
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
		d := len(p.x[0])
		flat := make([]float64, len(p.x)*d)
		p.scaled = make([][]float64, len(p.x))
		for i, row := range p.x {
			p.scaled[i] = flat[i*d : (i+1)*d : (i+1)*d]
			s.transformInto(p.scaled[i], row)
		}
	})
	return s, p.scaled
}

// standardizedCols returns the matrix's scaler and its standardized
// values column-major with a trailing bias column of ones: with n rows
// and d features, column j occupies [j·n, (j+1)·n) and the bias column
// [d·n, (d+1)·n), in one allocation. Each value is computed exactly as
// scaler.transformInto computes it, from x directly, so a caller that
// needs only columns never builds the row-major copy. Computed on first
// use; callers must not modify either result.
func (p *Prepared) standardizedCols() (*scaler, []float64) {
	s := p.scaler()
	p.colsOnce.Do(func() {
		n, d := len(p.x), len(p.x[0])
		cols := make([]float64, (d+1)*n)
		for j := 0; j < d; j++ {
			col, mean, inv := cols[j*n:(j+1)*n], s.mean[j], s.inv[j]
			for i, row := range p.x {
				col[i] = (row[j] - mean) * inv
			}
		}
		bias := cols[d*n:]
		for i := range bias {
			bias[i] = 1
		}
		p.cols = cols
	})
	return s, p.cols
}

// preparedFitter is implemented by the package's classifiers: Fit over a
// Prepared matrix, reusing its shared preprocessing. Fit(x, y) is
// fitPrepared(Prepare(x), y).
type preparedFitter interface {
	fitPrepared(px *Prepared, y []int) error
}

// FitColumns fits one classifier per output column v in [lo, hi) over
// px, storing it in models[v]. column(v, dst) fills dst (one entry per
// row of px) with column v's binary labels; it is called concurrently.
// Column v's classifier is factory(seed + v·31337), so a column's model
// does not depend on which range or worker fitted it. Columns are fitted
// in parallel across CPUs; classifiers of this package share px's
// preprocessing, any other registered classifier gets plain Fit.
//
// ctx is checked between column dispatches: on cancellation in-flight
// fits finish and the error is ctx.Err(). Otherwise the first failing
// column, in column order, is reported.
func FitColumns(ctx context.Context, px *Prepared, factory Factory, seed int64, lo, hi int, column func(v int, dst []int), models []Classifier) error {
	errs := make([]error, hi-lo)
	workers := runtime.NumCPU()
	if workers > hi-lo {
		workers = hi - lo
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range work {
				col := make([]int, len(px.x))
				column(v, col)
				c := factory(seed + int64(v)*31337)
				var err error
				if pf, ok := c.(preparedFitter); ok {
					err = pf.fitPrepared(px, col)
				} else {
					err = c.Fit(px.x, col)
				}
				if err != nil {
					errs[v-lo] = fmt.Errorf("output %d: %w", v, err)
					continue
				}
				models[v] = c
			}
		}()
	}
	cancelled := false
	for v := lo; v < hi; v++ {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		work <- v
	}
	close(work)
	wg.Wait()
	if cancelled {
		return ctx.Err()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
