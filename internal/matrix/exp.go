package matrix

import "math"

// ExpTo sets dst[i] = math.Exp(src[i]) for every i, bit for bit. dst must
// be at least as long as src, and the two must be the same slice or not
// overlap.
//
// On amd64 with AVX2 and FMA, blocks of four run through an assembly
// kernel that replays math.Exp's own FMA path lane by lane (exp_amd64.s).
// A block with any lane outside (−700, 700), NaN and ±Inf included, the
// tail of fewer than four, and every input on other architectures or on
// a CPU that fails the start-up check (exp_amd64.go) go to math.Exp.
func ExpTo(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	i := 0
	if expKernel {
		for {
			i += expBlocks(dst[i:], src[i:])
			if n-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				dst[i] = math.Exp(src[i])
			}
		}
	}
	for ; i < n; i++ {
		dst[i] = math.Exp(src[i])
	}
}
