//go:build !amd64

package matrix

// expKernel is false off amd64: ExpTo is math.Exp element by element.
const expKernel = false

func expBlocks(dst, src []float64) int { return 0 }
