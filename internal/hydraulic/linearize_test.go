package hydraulic

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/network"
)

// hwPowScalar and evalPipeScalar are the one-link forms of hwPowTo and
// the pipe linearization, kept as the oracle of the batched routine.
func hwPowScalar(aq float64) float64 {
	if aq == math.Inf(1) {
		return aq
	}
	return aq * math.Exp(hwFrac*math.Log(aq))
}

func evalPipeScalar(r, m, q float64) linkCoeffs {
	aq := math.Abs(q)
	if aq < qSmall {
		aq = qSmall
	}
	hw := hwPowScalar(aq)
	grad := hwExp*r*hw + 2*m*aq
	h := q * (r*hw + m*aq)
	return linkCoeffs{h: h, p: 1 / grad}
}

// TestBatchedLinearizationMatchesScalar requires Solver.linearize to give
// every open link the bits of the scalar evaluation, link by link, on
// EPA-NET (pipes, valves and pumps) and the 32×32 grid. Flows are random
// over six decades of either sign, with 0, ±qSmall and its neighbours,
// ±Inf and NaN mixed in; the iteration-0 table built in NewSolver must
// match the scalar evaluation at the initial flows.
func TestBatchedLinearizationMatchesScalar(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), qSmall, -qSmall,
		math.Nextafter(qSmall, 0), math.Nextafter(qSmall, 1),
		-math.Nextafter(qSmall, 0), -math.Nextafter(qSmall, 1),
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(26))
	for _, net := range []*network.Network{
		network.BuildEPANet(),
		network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32}),
	} {
		s, err := NewSolver(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		scalar := func(flow []float64, li int) linkCoeffs {
			if net.Links[li].Type == network.Pump {
				return evalPump(&net.Links[li], flow[li])
			}
			return evalPipeScalar(s.resistance[li], s.minorRes[li], flow[li])
		}
		compare := func(label string, flow []float64, got []linkCoeffs) {
			t.Helper()
			for li := range net.Links {
				if net.Links[li].Status == network.Closed {
					continue
				}
				want := scalar(flow, li)
				if math.Float64bits(got[li].h) != math.Float64bits(want.h) ||
					math.Float64bits(got[li].p) != math.Float64bits(want.p) {
					t.Fatalf("%s %s: link %d at flow %v: batched %+v, scalar %+v",
						net.Name, label, li, flow[li], got[li], want)
				}
			}
		}
		compare("iteration 0", s.flow0, s.coeffs0)

		flow := make([]float64, len(net.Links))
		got := make([]linkCoeffs, len(net.Links))
		for trial := 0; trial < 200; trial++ {
			for li := range flow {
				flow[li] = math.Pow(10, -6+6*rng.Float64())
				if rng.Intn(2) == 0 {
					flow[li] = -flow[li]
				}
				if rng.Intn(16) == 0 {
					flow[li] = specials[rng.Intn(len(specials))]
				}
			}
			s.linearize(flow, got)
			compare("random flows", flow, got)
		}
	}
}

// TestSolverReuseMatchesFresh requires a solve on a reused solver, which
// keeps the previous solve's junction demands when t repeats, to give the
// bits of the same solve on a fresh solver.
func TestSolverReuseMatchesFresh(t *testing.T) {
	net := network.BuildEPANet()
	reused, err := NewSolver(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	leak := []Emitter{{Node: reused.junctions[len(reused.junctions)/2], Coeff: 1e-3}}
	for i, tm := range []time.Duration{8 * time.Hour, 8 * time.Hour, 3 * time.Hour, 8 * time.Hour, 0} {
		emitters := leak[:i%2]
		got, err := reused.SolveSteady(tm, emitters, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewSolver(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SolveSteady(tm, emitters, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want.Head {
			if math.Float64bits(got.Head[k]) != math.Float64bits(want.Head[k]) ||
				math.Float64bits(got.Demand[k]) != math.Float64bits(want.Demand[k]) {
				t.Fatalf("solve %d at %v: node %d differs from a fresh solver", i, tm, k)
			}
		}
		for li := range want.Flow {
			if math.Float64bits(got.Flow[li]) != math.Float64bits(want.Flow[li]) {
				t.Fatalf("solve %d at %v: link %d differs from a fresh solver", i, tm, li)
			}
		}
	}
}
