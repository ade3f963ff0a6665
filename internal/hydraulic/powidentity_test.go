package hydraulic

import (
	"math"
	"math/rand"
	"testing"
)

// TestPipeHeadlossPowIdentity pins the standard-library behaviour evalPipe
// relies on: hwPow(aq) has the bits of math.Pow(aq, hwExp-1) for every
// flow magnitude the pipe model can present. It covers ten million
// log-uniform |Q| in [qSmall, 1e4], both ends and 1.0 exactly, the next
// floats around them, and +Inf; NaN must stay NaN.
func TestPipeHeadlossPowIdentity(t *testing.T) {
	check := func(aq float64) {
		want := math.Pow(aq, hwExp-1)
		if got := hwPow(aq); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("hwPow(%v) = %v (%#x), math.Pow = %v (%#x)",
				aq, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, aq := range []float64{qSmall, 1, 1e4, math.MaxFloat64, math.Inf(1)} {
		check(aq)
		check(math.Nextafter(aq, 0))
		check(math.Nextafter(aq, math.Inf(1)))
	}
	if !math.IsNaN(hwPow(math.NaN())) {
		t.Fatal("hwPow(NaN) is not NaN")
	}
	n := 10_000_000
	if testing.Short() {
		n = 200_000
	}
	rng := rand.New(rand.NewSource(1852))
	lo, hi := math.Log(qSmall), math.Log(1e4)
	for i := 0; i < n; i++ {
		aq := math.Exp(lo + (hi-lo)*rng.Float64())
		if aq < qSmall {
			aq = qSmall
		}
		check(aq)
	}
}
