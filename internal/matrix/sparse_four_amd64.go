package matrix

// laneKernel selects the AVX kernels of FactorizeFour and SolveFour once,
// at start-up. Unlike LogTo and ExpTo they need no probe: they run only
// IEEE add, multiply, subtract and divide, which have no second path in
// the runtime. Tests switch it off to run the pure-Go loops, the
// kernels' oracle.
var laneKernel = cpuHasAVX2FMA()

// substituteFour runs SolveFour's forward, diagonal and backward
// substitutions in place on the interleaved workspace w: per lane
// VMULPD then VSUBPD, or VDIVPD, in Solve's order. lp must have
// len(w)+1 entries, d len(w), and every li entry must index w.
//
//go:noescape
func substituteFour(w [][Lanes]float64, lp, li []int, lx, d [][Lanes]float64)

// factorizeFour runs FactorizeFour's numeric loop over the pattern: per
// lane VADDPD, VMULPD then VSUBPD, and VDIVPD, in Factorize's order. y
// must be zero on entry and is zero on return; bit l of failed is set
// when lane l meets a pivot that is not > 0.
//
//go:noescape
func factorizeFour(vals *[Lanes][]float64, y [][Lanes]float64, colPtr, rowIdx, rowPtr []int, rowCol, rowSlot []int32, lp, li []int, lx, d [][Lanes]float64) (failed int)
