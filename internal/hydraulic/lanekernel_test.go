package hydraulic

import (
	"fmt"
	"testing"
	_ "unsafe" // go:linkname
)

// laneKernel is internal/matrix's start-up switch for the
// FactorizeFour/SolveFour kernels, reached so the four-lane tests here
// can run the pure-Go loops too.
//
//go:linkname laneKernel github.com/aquascale/aquascale/internal/matrix.laneKernel
var laneKernel bool

// forEachLaneKernel runs test once with the lane kernels off and, where
// the CPU selected them, once with them on, restoring the start-up choice
// afterwards.
func forEachLaneKernel(t *testing.T, test func(*testing.T)) {
	selected := laneKernel
	defer func() { laneKernel = selected }()
	for _, on := range []bool{false, true} {
		if on && !selected {
			continue
		}
		laneKernel = on
		t.Run(fmt.Sprintf("kernel=%v", on), test)
	}
}
