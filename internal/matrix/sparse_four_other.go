//go:build !amd64

package matrix

// laneKernel is false off amd64: FactorizeFour and SolveFour run their
// pure-Go loops.
var laneKernel = false

func substituteFour(w [][Lanes]float64, lp, li []int, lx, d [][Lanes]float64) {
	panic("matrix: no four-lane substitution kernel on this architecture")
}

func factorizeFour(vals *[Lanes][]float64, y [][Lanes]float64, colPtr, rowIdx, rowPtr []int, rowCol, rowSlot []int32, lp, li []int, lx, d [][Lanes]float64) int {
	panic("matrix: no four-lane factorization kernel on this architecture")
}
