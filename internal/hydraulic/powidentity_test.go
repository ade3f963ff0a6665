package hydraulic

import (
	"math"
	"math/rand"
	"testing"
)

// TestPipeHeadlossPowIdentity pins the standard-library behaviour the pipe
// linearization relies on: hwPowTo gives the bits of math.Pow(aq, hwExp-1)
// for every flow magnitude the pipe model can present. It covers ten
// million log-uniform |Q| in [qSmall, 1e4], both ends and 1.0 exactly, the
// next floats around them, and +Inf; NaN must stay NaN.
func TestPipeHeadlossPowIdentity(t *testing.T) {
	check := func(aqs []float64) {
		hw := make([]float64, len(aqs))
		hwPowTo(hw, aqs)
		for k, aq := range aqs {
			want := math.Pow(aq, hwExp-1)
			if got := hw[k]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hwPowTo(%v) = %v (%#x), math.Pow = %v (%#x)",
					aq, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	var edges []float64
	for _, aq := range []float64{qSmall, 1, 1e4, math.MaxFloat64, math.Inf(1)} {
		edges = append(edges, aq, math.Nextafter(aq, 0), math.Nextafter(aq, math.Inf(1)))
	}
	check(edges)
	nan := []float64{math.NaN()}
	if hwPowTo(nan, nan); !math.IsNaN(nan[0]) {
		t.Fatal("hwPowTo(NaN) is not NaN")
	}
	n := 10_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(1852))
	lo, hi := math.Log(qSmall), math.Log(1e4)
	batch := make([]float64, 0, 1086)
	for i := 0; i < n; i++ {
		aq := math.Exp(lo + (hi-lo)*rng.Float64())
		if aq < qSmall {
			aq = qSmall
		}
		if batch = append(batch, aq); len(batch) == cap(batch) || i == n-1 {
			check(batch)
			batch = batch[:0]
		}
	}
}
