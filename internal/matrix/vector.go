package matrix

// Dot returns the inner product of a and b. The slices must have equal
// length; this is the caller's responsibility (hot path, no check).
func Dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// AxpY computes y += alpha*x in place.
func AxpY(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}
