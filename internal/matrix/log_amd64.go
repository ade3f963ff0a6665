package matrix

import "math"

// logKernel selects the four-lane kernel of LogTo once, at start-up.
var logKernel = cpuHasAVX2FMA() && logProbe()

// logBlocks writes math.Log of src into dst four elements at a time, from
// the start, while every lane of a block is a positive normal finite
// number. It returns how many elements it wrote: a multiple of four,
// stopping at the first block it refuses or before a tail of fewer than
// four.
//
//go:noescape
func logBlocks(dst, src []float64) int

// logProbe reports whether the kernel gives math.Log's bits on a fixed
// set of inputs across the normal range. The kernel replays the standard
// library's amd64 assembly, so a Go release that changes math.Log turns
// the kernel off here instead of moving bits.
func logProbe() bool {
	const n = 256
	var src, dst [n]float64
	for i := range src {
		u := math.Mod(float64(i)*0.6180339887498949, 1) // Weyl sequence
		switch i % 4 {
		case 0, 2:
			src[i] = math.Exp(1400*u - 700)
		case 1:
			src[i] = 0.5 + u // around 1
		case 3:
			src[i] = math.Ldexp(math.Sqrt2/2, i/4-32) // where the adjustment flips
		}
	}
	if logBlocks(dst[:], src[:]) != n {
		return false
	}
	for i, x := range src {
		if math.Float64bits(dst[i]) != math.Float64bits(math.Log(x)) {
			return false
		}
	}
	return true
}
