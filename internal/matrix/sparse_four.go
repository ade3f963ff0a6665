package matrix

import "fmt"

// Lanes is the width of the lane-parallel factorize and solve: four
// independent systems on one pattern, one float64 each in every
// interleaved [4]float64 entry.
const Lanes = 4

// lanes is the interleaved numeric state of FactorizeFour and SolveFour,
// allocated on first use so systems that only ever factorize one
// coefficient set never pay for it.
type lanes struct {
	lx [][Lanes]float64 // L values, [slot][lane]
	d  [][Lanes]float64 // D of LDLᵀ, [column][lane]
	y  [][Lanes]float64 // dense row accumulator
	w  [][Lanes]float64 // solve workspace
}

func (s *SparseSPD) fourLanes() *lanes {
	if s.four == nil {
		s.four = &lanes{
			lx: make([][Lanes]float64, len(s.lx)),
			d:  make([][Lanes]float64, s.n),
			y:  make([][Lanes]float64, s.n),
			w:  make([][Lanes]float64, s.n),
		}
	}
	return s.four
}

// Values returns the assembly array in slot order: Add(slot, v) is
// Values()[slot] += v, Reset zeroes it and Factorize reads it. A caller
// assembling several coefficient sets for FactorizeFour writes each
// into its own array of this length and slot order.
func (s *SparseSPD) Values() []float64 { return s.values }

// FactorizeFour factorizes four coefficient sets on the shared pattern at
// once: vals[l] is lane l's assembly array (NNZ long, Values' slot
// order). Every lane runs exactly Factorize's statements in Factorize's
// order, unrolled four wide, so each lane's factor has the bits
// Factorize gives its coefficients alone. Bit l of failed is set when
// lane l meets a non-positive or non-finite pivot; that lane's factor is
// meaningless, the others are unaffected. The result stays in the lane
// state for SolveFour; Factorize's own factor is not touched. No
// allocation after the first call.
func (s *SparseSPD) FactorizeFour(vals *[Lanes][]float64) (failed uint8) {
	ls := s.fourLanes()
	nnz := len(s.values)
	v0, v1, v2, v3 := vals[0][:nnz], vals[1][:nnz], vals[2][:nnz], vals[3][:nnz]
	y, li, lx, d := ls.y, s.li, ls.lx, ls.d
	for k := 0; k < s.n; k++ {
		// Scatter column k of each lane's A.
		for p := s.colPtr[k]; p < s.colPtr[k+1]; p++ {
			r := &y[s.rowIdx[p]]
			r[0] += v0[p]
			r[1] += v1[p]
			r[2] += v2[p]
			r[3] += v3[p]
		}
		yk := &y[k]
		dk0, dk1, dk2, dk3 := yk[0], yk[1], yk[2], yk[3]
		*yk = [Lanes]float64{}
		for t := s.rowPtr[k]; t < s.rowPtr[k+1]; t++ {
			i := s.rowCol[t]
			slot := int(s.rowSlot[t])
			yr := &y[i]
			y0, y1, y2, y3 := yr[0], yr[1], yr[2], yr[3]
			*yr = [Lanes]float64{}
			for p := s.lp[i]; p < slot; p++ {
				l := &lx[p]
				r := &y[li[p]]
				r[0] -= l[0] * y0
				r[1] -= l[1] * y1
				r[2] -= l[2] * y2
				r[3] -= l[3] * y3
			}
			di := &d[i]
			l0 := y0 / di[0]
			l1 := y1 / di[1]
			l2 := y2 / di[2]
			l3 := y3 / di[3]
			dk0 -= l0 * y0
			dk1 -= l1 * y1
			dk2 -= l2 * y2
			dk3 -= l3 * y3
			lx[slot] = [Lanes]float64{l0, l1, l2, l3}
		}
		// !(dk > 0) catches dk <= 0 and NaN, as in Factorize.
		if !(dk0 > 0) {
			failed |= 1
		}
		if !(dk1 > 0) {
			failed |= 2
		}
		if !(dk2 > 0) {
			failed |= 4
		}
		if !(dk3 > 0) {
			failed |= 8
		}
		d[k] = [Lanes]float64{dk0, dk1, dk2, dk3}
	}
	return failed
}

// SolveFour solves lane l's system A_l·x = b[l] into dst[l] for all four
// lanes, using the factors of the last FactorizeFour. Each lane runs
// Solve's statements in Solve's order, so a lane whose factorization
// succeeded gets Solve's bits. Every b[l] and dst[l] must have length n;
// dst[l] may alias b[l]. No allocation.
func (s *SparseSPD) SolveFour(b, dst *[Lanes][]float64) error {
	n := s.n
	for l := range b {
		if len(b[l]) != n || len(dst[l]) != n {
			return fmt.Errorf("matrix: SparseSPD lane %d solve dimension mismatch: %d/%d vs %d", l, len(dst[l]), len(b[l]), n)
		}
	}
	ls := s.fourLanes()
	w, li, lx, d := ls.w, s.li, ls.lx, ls.d
	b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
	for k := 0; k < n; k++ {
		pk := s.perm[k]
		w[k] = [Lanes]float64{b0[pk], b1[pk], b2[pk], b3[pk]}
	}
	// L·y = P·b (unit lower triangular).
	for k := 0; k < n; k++ {
		wk := w[k]
		for p := s.lp[k]; p < s.lp[k+1]; p++ {
			l := &lx[p]
			r := &w[li[p]]
			r[0] -= l[0] * wk[0]
			r[1] -= l[1] * wk[1]
			r[2] -= l[2] * wk[2]
			r[3] -= l[3] * wk[3]
		}
	}
	// D·z = y.
	for k := 0; k < n; k++ {
		r, dk := &w[k], &d[k]
		r[0] /= dk[0]
		r[1] /= dk[1]
		r[2] /= dk[2]
		r[3] /= dk[3]
	}
	// Lᵀ·(P·x) = z.
	for k := n - 1; k >= 0; k-- {
		wk := w[k]
		for p := s.lp[k]; p < s.lp[k+1]; p++ {
			l := &lx[p]
			r := &w[li[p]]
			wk[0] -= l[0] * r[0]
			wk[1] -= l[1] * r[1]
			wk[2] -= l[2] * r[2]
			wk[3] -= l[3] * r[3]
		}
		w[k] = wk
	}
	x0, x1, x2, x3 := dst[0], dst[1], dst[2], dst[3]
	for k := 0; k < n; k++ {
		pk, wk := s.perm[k], &w[k]
		x0[pk] = wk[0]
		x1[pk] = wk[1]
		x2[pk] = wk[2]
		x3[pk] = wk[3]
	}
	return nil
}
