package hydraulic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// randomEmitters draws one lane's emitter set: mostly leak-sized
// coefficients at junctions, plus the edge cases the four-lane solve must
// reproduce — the same node twice, an emitter at a fixed-grade node, a
// zero coefficient, and an oversized emitter that drains its node below
// its elevation (p ≤ 0).
func randomEmitters(rng *rand.Rand, net *network.Network, junctions, fixed []int) []Emitter {
	var out []Emitter
	for range 1 + rng.Intn(5) {
		size := math.Exp(math.Log(3e-4) + rng.Float64()*math.Log(10))
		out = append(out, Emitter{Node: junctions[rng.Intn(len(junctions))], Coeff: size})
	}
	switch rng.Intn(6) {
	case 0:
		out = append(out, Emitter{Node: out[0].Node, Coeff: 1e-3})
	case 1:
		if len(fixed) > 0 {
			out = append(out, Emitter{Node: fixed[rng.Intn(len(fixed))], Coeff: 2e-3})
		}
	case 2:
		out = append(out, Emitter{Node: junctions[rng.Intn(len(junctions))], Coeff: 0})
	case 3:
		out = append(out, Emitter{Node: junctions[rng.Intn(len(junctions))], Coeff: 0.05 + rng.Float64()})
	}
	return out
}

// TestSolveFourMatchesScalar pins every lane of SolveSteadyFour to
// SolveSteady on that lane's emitters alone: heads, flows and iteration
// counts bit for bit, and the same failure status, on the grid, EPA-NET
// (pumps, tanks, a valve), WSSC-SUBNET, the test network and a
// single junction its reservoir cannot lift to positive pressure, demand- and
// pressure-driven, at the default budget, at a tight accuracy that runs
// lanes past the iteration-20 damping, and at a budget too small for
// most lanes. Blocks of fewer than four live lanes are included. It runs
// with the head system's lane kernels on and off.
func TestSolveFourMatchesScalar(t *testing.T) {
	forEachLaneKernel(t, testSolveFourMatchesScalar)
}

func testSolveFourMatchesScalar(t *testing.T) {
	nets := []*network.Network{
		network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32}),
		network.BuildEPANet(),
		network.BuildWSSCSubnet(),
		network.BuildTestNet(),
		lowHeadNet(8, 0.04), // demand-driven pressure below elevation
	}
	budgets := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"tight", Options{Accuracy: 1e-9, MaxIterations: 40}},
		{"small", Options{MaxIterations: 3}},
	}
	blocks := 12
	if testing.Short() {
		blocks = 6
	}
	var failures, damped, converged, drained int
	for _, net := range nets {
		junctions := net.JunctionIndices()
		var fixed []int
		for i := range net.Nodes {
			if net.Nodes[i].Type != network.Junction {
				fixed = append(fixed, i)
			}
		}
		for _, pdd := range []bool{false, true} {
			for _, b := range budgets {
				opts := b.opts
				opts.PressureDriven = pdd
				name := fmt.Sprintf("%s/pdd=%v/%s", net.Name, pdd, b.name)
				four, err := NewSolver(net, opts)
				if err != nil {
					t.Fatal(err)
				}
				scalar, err := NewSolver(net, opts)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(len(junctions))))
				for blk := range blocks {
					at := time.Duration(rng.Intn(24)) * time.Hour
					live := Lanes
					if blk%5 == 4 {
						live = 1 + rng.Intn(Lanes-1)
					}
					var em [Lanes][]Emitter
					for l := range em {
						em[l] = randomEmitters(rng, net, junctions, fixed)
					}
					ok := four.SolveSteadyFour(at, &em, live)
					for l := range Lanes {
						if l >= live {
							if ok[l] {
								t.Fatalf("%s block %d: padding lane %d reported converged", name, blk, l)
							}
							continue
						}
						res, err := scalar.SolveSteady(at, em[l], nil)
						if ok[l] != (err == nil) {
							t.Fatalf("%s block %d lane %d: four-lane converged %v, scalar error %v", name, blk, l, ok[l], err)
						}
						if err != nil {
							failures++
							continue
						}
						converged++
						v := four.Lane(l)
						if v.Iterations != res.Iterations {
							t.Fatalf("%s block %d lane %d: %d iterations, scalar %d", name, blk, l, v.Iterations, res.Iterations)
						}
						if v.Iterations > 20 {
							damped++
						}
						for i := range res.Head {
							if math.Float64bits(v.Head[i]) != math.Float64bits(res.Head[i]) ||
								math.Float64bits(v.PressureAt(i)) != math.Float64bits(res.Pressure[i]) {
								t.Fatalf("%s block %d lane %d: head %d bits differ: %v vs %v", name, blk, l, i, v.Head[i], res.Head[i])
							}
						}
						for i := range res.Flow {
							if math.Float64bits(v.FlowAt(i)) != math.Float64bits(res.Flow[i]) {
								t.Fatalf("%s block %d lane %d: flow %d bits differ: %v vs %v", name, blk, l, i, v.Flow[i], res.Flow[i])
							}
						}
						for _, e := range em[l] {
							if net.Nodes[e.Node].Type == network.Junction && e.Coeff > 0 && res.Pressure[e.Node] <= 0 {
								drained++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d converged lanes (%d past iteration 20, %d with a drained emitter node), %d failed", converged, damped, drained, failures)
	if failures == 0 || damped == 0 || drained == 0 {
		t.Fatalf("cases lost their contrast: %d failed lanes, %d damped, %d drained", failures, damped, drained)
	}
}

// TestSolveFourRefusesWithFailureHook checks that an installed failure
// hook sends every lane to the scalar path, which consults it.
func TestSolveFourRefusesWithFailureHook(t *testing.T) {
	s, err := NewSolver(network.BuildEPANet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetFailureHook(func(time.Duration, int) bool { return false })
	var em [Lanes][]Emitter
	if ok := s.SolveSteadyFour(0, &em, Lanes); ok != [Lanes]bool{} {
		t.Fatalf("lanes %v converged with a failure hook installed", ok)
	}
}

// TestSolveFourTelemetryParity requires the four-lane solve to count
// what solving its converged lanes one by one counts: solves, Newton
// iterations and numeric factorizations.
func TestSolveFourTelemetryParity(t *testing.T) {
	net := network.BuildWSSCSubnet()
	junctions := net.JunctionIndices()
	rng := rand.New(rand.NewSource(3))
	var blocks [][Lanes][]Emitter
	for range 6 {
		var em [Lanes][]Emitter
		for l := range em {
			em[l] = randomEmitters(rng, net, junctions, nil)
		}
		blocks = append(blocks, em)
	}
	count := func(run func(s *Solver)) map[string]int64 {
		reg := telemetry.Enable()
		defer telemetry.Disable()
		s, err := NewSolver(net, Options{MaxIterations: 4})
		if err != nil {
			t.Fatal(err)
		}
		run(s)
		out := map[string]int64{}
		for _, name := range []string{"hydraulic_solves_total", "hydraulic_newton_iterations_total", "hydraulic_numeric_factorizations_total"} {
			out[name] = reg.Counter(name).Value()
		}
		return out
	}
	var oks [][Lanes]bool
	four := count(func(s *Solver) {
		for i := range blocks {
			oks = append(oks, s.SolveSteadyFour(0, &blocks[i], Lanes))
		}
	})
	one := count(func(s *Solver) {
		for i := range blocks {
			for l := range Lanes {
				if oks[i][l] {
					if _, err := s.SolveSteady(0, blocks[i][l], nil); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
	if fmt.Sprint(four) != fmt.Sprint(one) {
		t.Fatalf("four-lane telemetry %v, one by one %v", four, one)
	}
	if four["hydraulic_solves_total"] == 0 {
		t.Fatal("no lane converged")
	}
}

// TestSolveFourAllocationFree pins the four-lane solve to zero
// allocations once its lane state exists.
func TestSolveFourAllocationFree(t *testing.T) {
	net := network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32})
	s, err := NewSolver(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	junctions := net.JunctionIndices()
	rng := rand.New(rand.NewSource(9))
	var em [Lanes][]Emitter
	for l := range em {
		em[l] = randomEmitters(rng, net, junctions, nil)[:1]
	}
	s.SolveSteadyFour(8*time.Hour, &em, Lanes) // first call allocates the lanes
	if allocs := testing.AllocsPerRun(10, func() { s.SolveSteadyFour(8*time.Hour, &em, Lanes) }); allocs != 0 {
		t.Fatalf("%v allocations per four-lane solve, want 0", allocs)
	}
}
