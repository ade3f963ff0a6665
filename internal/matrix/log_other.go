//go:build !amd64

package matrix

// logKernel is false off amd64: LogTo is math.Log element by element.
const logKernel = false

func logBlocks(dst, src []float64) int { return 0 }
