package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestExpToIdentity requires ExpTo to give math.Exp's bits on ten million
// inputs (200k under -short): uniform in [−745, 710], |x| < 5, and the
// neighbourhoods of the kernel's range limits ±700 and of math.Exp's own
// branch points (708.39, 709.78, −745.13), with ±0, ±Inf, NaN,
// ±MaxFloat64 and the smallest subnormals dropped into random blocks. It
// then covers every length 0–9 and dst aliasing src.
func TestExpToIdentity(t *testing.T) {
	t.Logf("four-lane kernel selected: %v", expKernel)
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	}
	edges := []float64{700, -700, 708.39, -708.39, 709.78, -709.78, -745.13}
	rng := rand.New(rand.NewSource(29))
	input := func() float64 {
		switch k := rng.Intn(8); {
		case k < 4:
			return -745 + 1455*rng.Float64()
		case k < 7:
			return 10*rng.Float64() - 5
		default:
			x := edges[rng.Intn(len(edges))]
			if rng.Intn(2) == 0 {
				return x + 0.01*(rng.Float64()-0.5)
			}
			dir := math.Inf(1 - 2*rng.Intn(2))
			for s := rng.Intn(32); s > 0; s-- {
				x = math.Nextafter(x, dir)
			}
			return x
		}
	}
	check := func(got, in []float64) {
		t.Helper()
		for i, x := range in {
			if want := math.Exp(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("ExpTo(%v) = %v (%#x), math.Exp = %v (%#x), length %d index %d",
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
		ExpTo(dst, src)
		check(dst, src)
	}

	for length := 0; length <= 9; length++ {
		for trial := 0; trial < 200; trial++ {
			in := make([]float64, length)
			for i := range in {
				in[i] = 10*rng.Float64() - 5
				if trial%4 == 3 {
					in[i] = special[rng.Intn(len(special))]
				}
			}
			out := make([]float64, length+trial%2) // dst may be longer
			ExpTo(out, in)
			check(out, in)
			alias := append([]float64(nil), in...)
			ExpTo(alias, alias)
			check(alias, in)
		}
	}
}

// BenchmarkExpTo times one batch at the sizes the callers present: the
// EPA-NET links, the Platt rows and the 32×32 grid's links. The math.Exp
// rows are the scalar loop ExpTo replaces.
func BenchmarkExpTo(b *testing.B) {
	for _, n := range []int{121, 800, 1086} {
		rng := rand.New(rand.NewSource(1))
		src := make([]float64, n)
		for i := range src {
			src[i] = 4 * rng.NormFloat64()
		}
		dst := make([]float64, n)
		b.Run(fmt.Sprintf("ExpTo/n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				ExpTo(dst, src)
			}
		})
		b.Run(fmt.Sprintf("math.Exp/n=%d", n), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for i, x := range src {
					dst[i] = math.Exp(x)
				}
			}
		})
	}
}
