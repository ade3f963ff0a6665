package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestLogToIdentity requires LogTo to give math.Log's bits on ten million
// inputs (200k under -short): log-uniform over the whole normal range,
// uniform around 1, and the neighbourhoods of powers of two and of
// √2/2·2^e, where the frexp adjustment flips, with ±0, negatives, ±Inf,
// NaN, subnormals, the smallest normal and ±MaxFloat64 dropped into
// random blocks. It then covers every length 0–9 and dst aliasing src.
func TestLogToIdentity(t *testing.T) {
	t.Logf("four-lane kernel selected: %v", logKernel)
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		-1, -math.SmallestNonzeroFloat64, -math.MaxFloat64, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1040, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
	}
	rng := rand.New(rand.NewSource(31))
	input := func() float64 {
		switch k := rng.Intn(8); {
		case k < 4:
			return math.Exp(-708 + 1417*rng.Float64())
		case k < 6:
			return 0.5 + 1.5*rng.Float64()
		default:
			x := math.Ldexp(1, rng.Intn(2046)-1022)
			if rng.Intn(2) == 0 {
				x *= math.Sqrt2 / 2
			}
			dir := math.Inf(1 - 2*rng.Intn(2))
			for s := rng.Intn(8); s > 0; s-- {
				x = math.Nextafter(x, dir)
			}
			return x
		}
	}
	check := func(got, in []float64) {
		t.Helper()
		for i, x := range in {
			if want := math.Log(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("LogTo(%v) = %v (%#x), math.Log = %v (%#x), length %d index %d",
					x, got[i], math.Float64bits(got[i]), want, math.Float64bits(want), len(in), i)
			}
		}
	}

	n := 10_000_000
	if testing.Short() {
		n = 200_000
	}
	src := make([]float64, 1024)
	dst := make([]float64, len(src))
	for done := 0; done < n; done += len(src) {
		for i := range src {
			src[i] = input()
		}
		for k := rng.Intn(3); k > 0; k-- {
			src[rng.Intn(len(src))] = special[rng.Intn(len(special))]
		}
		LogTo(dst, src)
		check(dst, src)
	}

	for length := 0; length <= 9; length++ {
		for trial := 0; trial < 200; trial++ {
			in := make([]float64, length)
			for i := range in {
				in[i] = input()
				if trial%4 == 3 {
					in[i] = special[rng.Intn(len(special))]
				}
			}
			out := make([]float64, length+trial%2) // dst may be longer
			LogTo(out, in)
			check(out, in)
			alias := append([]float64(nil), in...)
			LogTo(alias, alias)
			check(alias, in)
		}
	}
}

// BenchmarkLogTo times one batch at the pipe counts of EPA-NET and the
// 32×32 grid and at 2,048. The math.Log rows are the scalar loop LogTo
// replaces.
func BenchmarkLogTo(b *testing.B) {
	for _, n := range []int{117, 1086, 2048} {
		rng := rand.New(rand.NewSource(1))
		src := make([]float64, n)
		for i := range src {
			src[i] = math.Exp(-6 + 6*rng.Float64())
		}
		dst := make([]float64, n)
		b.Run(fmt.Sprintf("LogTo/n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				LogTo(dst, src)
			}
		})
		b.Run(fmt.Sprintf("math.Log/n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i, x := range src {
					dst[i] = math.Log(x)
				}
			}
		})
	}
}
