package matrix

import "math"

// LogTo sets dst[i] = math.Log(src[i]) for every i, bit for bit. dst must
// be at least as long as src, and the two must be the same slice or not
// overlap.
//
// On amd64 with AVX2, blocks of four run through an assembly kernel that
// replays math.Log's own amd64 path lane by lane (log_amd64.s). A block
// with any lane that is not a positive normal finite number (zero,
// subnormal, negative, ±Inf or NaN), the tail of fewer than four, and
// every input on other architectures or on a CPU that fails the start-up
// check (log_amd64.go) go to math.Log.
func LogTo(dst, src []float64) {
	n := len(src)
	dst = dst[:n]
	i := 0
	if logKernel {
		for {
			i += logBlocks(dst[i:], src[i:])
			if n-i < 4 {
				break
			}
			for end := i + 4; i < end; i++ {
				dst[i] = math.Log(src[i])
			}
		}
	}
	for ; i < n; i++ {
		dst[i] = math.Log(src[i])
	}
}
