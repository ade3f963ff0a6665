// Package randsrc provides a math/rand source that gives, for every seed,
// the stream rand.NewSource(seed) gives, and re-seeds several times
// faster. Callers keep *rand.Rand: rand.New(randsrc.New(seed)) draws what
// rand.New(rand.NewSource(seed)) draws, and Rand.Seed on it re-seeds
// through Source.Seed.
//
// math/rand's Seed fills its 607-entry register from one serial chain of
// 1,841 steps of the Lehmer generator x ← 48271·x mod (2³¹−1). Each step
// depends on the last, so seeding costs ~12 µs however fast the machine
// is. The k-th element of that chain is x₀·48271ᵏ mod (2³¹−1), so with
// the powers tabulated once, at init, every register entry is three
// independent multiplications reduced modulo the Mersenne prime 2³¹−1,
// which the processor overlaps. The stream after seeding is math/rand's
// additive lagged Fibonacci generator, unchanged.
package randsrc

import "math/rand"

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	seedSkip = 20 // chain steps math/rand discards before the first entry
)

// seedPow[i] holds 48271^k mod (2³¹−1) for the three chain steps k that
// make register entry i: seedSkip+3i+1, +2 and +3.
var seedPow [rngLen][3]uint32

func init() {
	x := int32(1)
	for k := 1; k <= seedSkip+3*rngLen; k++ {
		x = seedrand(x)
		if k > seedSkip {
			seedPow[(k-seedSkip-1)/3][(k-seedSkip-1)%3] = uint32(x)
		}
	}
}

// seedrand is math/rand's chain step, x·48271 mod (2³¹−1) by Schrage's
// method; init uses it to build seedPow.
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// mulMod returns x·p mod (2³¹−1) for x, p < 2³¹: the product's high
// bits fold onto its low 31 because 2³¹ ≡ 1.
func mulMod(x, p uint64) uint64 {
	q := x * p
	q = q&int32max + q>>31
	q = q&int32max + q>>31
	if q >= int32max {
		q -= int32max
	}
	return q
}

// Source is a rand.Source64 with math/rand's stream. The zero value is
// not seeded; use New. Like rand.NewSource's, it is not safe for
// concurrent use.
type Source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed sets the state rand.NewSource(seed) starts from.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		p := &seedPow[i]
		u := int64(mulMod(x, uint64(p[0]))) << 40
		u ^= int64(mulMod(x, uint64(p[1]))) << 20
		u ^= int64(mulMod(x, uint64(p[2])))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit integer.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
