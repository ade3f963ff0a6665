package matrix

import "math"

// expKernel selects the four-lane kernel of ExpTo once, at start-up.
var expKernel = cpuHasAVX2FMA() && expProbe()

// expBlocks writes math.Exp of src into dst four elements at a time, from
// the start, while every lane of a block lies in (−700, 700). It returns
// how many elements it wrote: a multiple of four, stopping at the first
// block it refuses or before a tail of fewer than four.
//
//go:noescape
func expBlocks(dst, src []float64) int

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cpuHasAVX2FMA reports AVX, FMA and AVX2 in CPUID and YMM state enabled
// by the OS in XCR0.
func cpuHasAVX2FMA() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0 // AVX2
}

// expProbe reports whether the kernel gives math.Exp's bits on a fixed
// set of inputs across its range. The hardware check alone is not enough:
// math.Exp takes its FMA path only when the runtime lets it (not under
// GODEBUG=cpu.fma=off, for one), and then the kernel disagrees on about
// one input in ten.
func expProbe() bool {
	const n = 256
	var src, dst [n]float64
	for i := range src {
		u := math.Mod(float64(i)*0.6180339887498949, 1) // Weyl sequence
		if i%2 == 0 {
			src[i] = 1398*u - 699
		} else {
			src[i] = 10*u - 5
		}
	}
	if expBlocks(dst[:], src[:]) != n {
		return false
	}
	for i, x := range src {
		if math.Float64bits(dst[i]) != math.Float64bits(math.Exp(x)) {
			return false
		}
	}
	return true
}
