package hydraulic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/network"
)

// randomNetwork builds a random connected gravity-fed network: a spanning
// tree over n junctions plus extra loop pipes, one elevated reservoir.
func randomNetwork(rng *rand.Rand, junctions int) *network.Network {
	net := network.New(fmt.Sprintf("rand-%d", junctions))
	res, _ := net.AddNode(network.Node{ID: "R", Type: network.Reservoir, Elevation: 80})
	idx := make([]int, junctions)
	for i := 0; i < junctions; i++ {
		idx[i], _ = net.AddNode(network.Node{
			ID:         fmt.Sprintf("J%d", i),
			Type:       network.Junction,
			Elevation:  rng.Float64() * 25,
			X:          rng.Float64() * 2000,
			Y:          rng.Float64() * 2000,
			BaseDemand: (0.2 + rng.Float64()) / 1000,
		})
	}
	link := 0
	addPipe := func(a, b int, diam float64) {
		link++
		_, _ = net.AddLink(network.Link{
			ID: fmt.Sprintf("P%d", link), Type: network.Pipe,
			From: a, To: b,
			Length:    50 + rng.Float64()*500,
			Diameter:  diam,
			Roughness: 90 + rng.Float64()*40,
		})
	}
	// Trunk from the reservoir, then a random spanning tree, then loops.
	addPipe(res, idx[0], 0.4)
	for i := 1; i < junctions; i++ {
		addPipe(idx[rng.Intn(i)], idx[i], 0.15+rng.Float64()*0.25)
	}
	for k := 0; k < junctions/2; k++ {
		a, b := rng.Intn(junctions), rng.Intn(junctions)
		if a != b {
			addPipe(idx[a], idx[b], 0.15+rng.Float64()*0.15)
		}
	}
	return net
}

// TestSolverPropertyRandomNetworks checks core hydraulic invariants on a
// population of random networks: convergence, junction mass balance,
// energy consistency along every open pipe (headloss sign matches flow
// direction), and source outflow equal to total consumption.
func TestSolverPropertyRandomNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 25; trial++ {
		junctions := 4 + rng.Intn(40)
		net := randomNetwork(rng, junctions)
		if err := net.Validate(); err != nil {
			t.Fatalf("trial %d: invalid generated network: %v", trial, err)
		}
		solver, err := NewSolver(net, Options{Accuracy: 1e-5})
		if err != nil {
			t.Fatalf("trial %d: NewSolver: %v", trial, err)
		}

		// Optionally add a leak at a random junction.
		var emitters []Emitter
		if rng.Intn(2) == 0 {
			emitters = append(emitters, Emitter{
				Node:  net.JunctionIndices()[rng.Intn(junctions)],
				Coeff: 1e-3,
			})
		}
		res, err := solver.SolveSteady(0, emitters, nil)
		if err != nil {
			t.Fatalf("trial %d (%d junctions): %v", trial, junctions, err)
		}

		checkInvariants(t, fmt.Sprintf("trial %d", trial), solver, res, 1e-6)
	}
}

// checkInvariants asserts the hydraulic invariants every converged
// steady solve must satisfy, within tol: junction mass balance, energy
// consistency along every open pipe (flow runs downhill in head), and
// net outflow from the fixed-grade sources equal to total consumption
// (demand plus leak discharge).
func checkInvariants(t *testing.T, label string, solver *Solver, res *Result, tol float64) {
	t.Helper()
	net := solver.Network()
	if mbe := solver.MassBalanceError(res); mbe > tol {
		t.Fatalf("%s: mass balance error %v", label, mbe)
	}
	for li := range net.Links {
		l := &net.Links[li]
		if l.Type != network.Pipe || l.Status == network.Closed {
			continue
		}
		dh := res.Head[l.From] - res.Head[l.To]
		q := res.Flow[li]
		if math.Abs(q) < 1e-9 {
			continue
		}
		if (q > 0 && dh < -tol) || (q < 0 && dh > tol) {
			t.Fatalf("%s: pipe %s flows uphill: q=%v dh=%v", label, l.ID, q, dh)
		}
	}
	var sourceOut float64
	for li := range net.Links {
		l := &net.Links[li]
		if l.Status == network.Closed {
			continue
		}
		if net.Nodes[l.From].Type != network.Junction {
			sourceOut += res.Flow[li]
		}
		if net.Nodes[l.To].Type != network.Junction {
			sourceOut -= res.Flow[li]
		}
	}
	want := res.TotalEmitterFlow()
	for i := range net.Nodes {
		want += res.Demand[i]
	}
	if math.Abs(sourceOut-want) > tol {
		t.Fatalf("%s: sources supply %v, consumption is %v", label, sourceOut, want)
	}
}

// TestSolverInvariantsEPANet and TestSolverInvariantsWSSC run the
// invariants on the two evaluation networks, tanks and pumps included,
// with two active leaks each, at the random population's accuracy (the
// default 1e-3 stops while a low-flow pipe's headloss can still disagree
// in sign with its flow by ~1e-5 m).
func TestSolverInvariantsEPANet(t *testing.T) {
	solveAndCheck(t, network.BuildEPANet(), []Emitter{{Node: 17, Coeff: 0.0005}, {Node: 60, Coeff: 0.001}})
}

func TestSolverInvariantsWSSC(t *testing.T) {
	solveAndCheck(t, network.BuildWSSCSubnet(), []Emitter{{Node: 42, Coeff: 0.0008}, {Node: 200, Coeff: 0.0004}})
}

func solveAndCheck(t *testing.T, net *network.Network, emitters []Emitter) {
	t.Helper()
	solver, err := NewSolver(net, Options{Accuracy: 1e-5})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := solver.SolveSteady(3*time.Hour, emitters, nil)
	if err != nil {
		t.Fatalf("SolveSteady: %v", err)
	}
	checkInvariants(t, net.Name, solver, res, 1e-6)
}

// TestSolverTinyNetworks covers the sizes below the random population's
// floor of four junctions, plus the 7-junction test network: each must
// solve with mass balance to round-off.
func TestSolverTinyNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nets := []*network.Network{randomNetwork(rng, 1), randomNetwork(rng, 2), randomNetwork(rng, 3), network.BuildTestNet()}
	for _, net := range nets {
		solver, err := NewSolver(net, Options{})
		if err != nil {
			t.Fatalf("%s: NewSolver: %v", net.Name, err)
		}
		res, err := solver.SolveSteady(0, nil, nil)
		if err != nil {
			t.Fatalf("%s (%d junctions): %v", net.Name, net.JunctionCount(), err)
		}
		if mbe := solver.MassBalanceError(res); mbe > 1e-12 {
			t.Fatalf("%s (%d junctions): mass balance error %v", net.Name, net.JunctionCount(), mbe)
		}
	}
}

// TestSolverLeakMonotonicity: on random networks, growing a leak's
// effective area increases its discharge and decreases the local pressure.
func TestSolverLeakMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		net := randomNetwork(rng, 10+rng.Intn(20))
		solver, err := NewSolver(net, Options{Accuracy: 1e-5})
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		node := net.JunctionIndices()[rng.Intn(net.JunctionCount())]
		prevQ := -1.0
		prevP := math.Inf(1)
		for _, ec := range []float64{5e-4, 1e-3, 2e-3, 4e-3} {
			res, err := solver.SolveSteady(0, []Emitter{{Node: node, Coeff: ec}}, nil)
			if err != nil {
				t.Fatalf("trial %d ec=%v: %v", trial, ec, err)
			}
			q := res.EmitterFlow[node]
			p := res.Pressure[node]
			if q <= prevQ {
				t.Fatalf("trial %d: leak flow not increasing with EC: %v → %v", trial, prevQ, q)
			}
			if p >= prevP {
				t.Fatalf("trial %d: leak pressure not decreasing with EC: %v → %v", trial, prevP, p)
			}
			prevQ, prevP = q, p
		}
	}
}
