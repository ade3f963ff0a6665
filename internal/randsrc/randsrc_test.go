package randsrc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sourceSeeds returns the seeds TestSourceMatchesMathRand checks: the
// edges of math/rand's seed reduction (0, which it replaces, the value it
// replaces 0 with, ±(2³¹−1) and its multiples, which reduce to 0, their
// neighbours, and both int64 limits) plus random seeds.
func sourceSeeds(random int) []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	for _, k := range []int64{1, 2, 3, 1 << 20, 1 << 32, math.MaxInt64 / int32max} {
		m := k * int32max
		seeds = append(seeds, m, -m, m-1, m+1, -m-1, -m+1)
	}
	rng := rand.New(rand.NewSource(20171))
	for range random {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 1500 // past the 607-entry register wrap, twice
	random := 2000
	if testing.Short() {
		random = 200
	}
	seeds := sourceSeeds(random)
	fast := New(1)
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		fast.Seed(seed)
		for k := 0; k < draws; k++ {
			var w, g uint64
			if k%2 == 0 {
				w, g = want.Uint64(), fast.Uint64()
			} else {
				w, g = uint64(want.Int63()), uint64(fast.Int63())
			}
			if w != g {
				t.Fatalf("seed %d, draw %d: got %#x, want %#x", seed, k, g, w)
			}
		}
	}

	// The derived draws of *rand.Rand, re-seeded through Rand.Seed as the
	// per-scenario sweeps do.
	want, got := rand.New(rand.NewSource(1)), rand.New(New(1))
	for i, seed := range seeds {
		if i%10 != 0 && i > 40 {
			continue
		}
		want.Seed(seed)
		got.Seed(seed)
		for k := 0; k < 200; k++ {
			checkBits(t, seed, "Float64", want.Float64(), got.Float64())
			checkBits(t, seed, "NormFloat64", want.NormFloat64(), got.NormFloat64())
			checkBits(t, seed, "ExpFloat64", want.ExpFloat64(), got.ExpFloat64())
			if w, g := want.Intn(1000+k), got.Intn(1000+k); w != g {
				t.Fatalf("seed %d: Intn %d, want %d", seed, g, w)
			}
			if w, g := want.Int31n(int32(7+k)), got.Int31n(int32(7+k)); w != g {
				t.Fatalf("seed %d: Int31n %d, want %d", seed, g, w)
			}
		}
		if w, g := want.Perm(300), got.Perm(300); !slices.Equal(w, g) {
			t.Fatalf("seed %d: Perm differs", seed)
		}
	}
}

func checkBits(t *testing.T, seed int64, what string, want, got float64) {
	t.Helper()
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("seed %d: %s %v, want %v", seed, what, got, want)
	}
}

func TestSeedAllocatesNothing(t *testing.T) {
	r := rand.New(New(1))
	seed := int64(0)
	if n := testing.AllocsPerRun(100, func() { seed++; r.Seed(seed) }); n != 0 {
		t.Fatalf("Rand.Seed allocates %v times", n)
	}
}

// BenchmarkSeed re-seeds one rand.Rand per op, over math/rand's source
// and over Source.
func BenchmarkSeed(b *testing.B) {
	for _, c := range []struct {
		name string
		src  rand.Source
	}{{"math-rand", rand.NewSource(1)}, {"randsrc", New(1)}} {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(c.src)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Seed(int64(i))
			}
		})
	}
}
