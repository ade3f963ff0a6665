package hydraulic

import (
	"fmt"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// TestNewtonIterationAllocationFree verifies the zero-allocations-per-
// iteration contract: tightening the accuracy multiplies the Newton
// iteration count but must not change the per-solve allocation count
// (which covers only the constant per-solve Result construction).
func TestNewtonIterationAllocationFree(t *testing.T) {
	net := network.BuildWSSCSubnet()
	loose, err := NewSolver(net, Options{Accuracy: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := NewSolver(net, Options{Accuracy: 1e-9, MaxIterations: 400})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(s *Solver) (func(), *int) {
		iters := new(int)
		return func() {
			res, err := s.SolveSteady(0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			*iters = res.Iterations
		}, iters
	}
	looseFn, looseIters := solve(loose)
	tightFn, tightIters := solve(tight)
	looseFn() // warm up internal buffers (emit slices)
	tightFn()
	if *tightIters <= *looseIters {
		t.Fatalf("tight solve took %d iterations, loose %d — test needs contrast", *tightIters, *looseIters)
	}
	la := testing.AllocsPerRun(5, looseFn)
	ta := testing.AllocsPerRun(5, tightFn)
	if la != ta {
		t.Fatalf("allocations scale with iterations: %v allocs at %d iters vs %v at %d",
			la, *looseIters, ta, *tightIters)
	}
}

// TestTankHeadsSliceMatchesMap checks the slice-staged tank API against
// the map API bit for bit.
func TestTankHeadsSliceMatchesMap(t *testing.T) {
	net := network.BuildEPANet()
	s, err := NewSolver(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tanks := s.TankNodes()
	if len(tanks) != 3 {
		t.Fatalf("TankNodes = %v, want 3 tanks", tanks)
	}
	override := make(map[int]float64, len(tanks))
	heads := make([]float64, len(tanks))
	for k, ti := range tanks {
		h := net.Nodes[ti].Elevation + net.Nodes[ti].InitLevel + 0.5*float64(k)
		override[ti] = h
		heads[k] = h
	}
	want, err := s.SolveSteady(time.Hour, nil, override)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.SolveSteadyHeads(time.Hour, nil, heads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Head {
		if want.Head[i] != got.Head[i] {
			t.Fatalf("head[%d] differs: map %v vs slice %v", i, want.Head[i], got.Head[i])
		}
	}
	if _, err := s.SolveSteadyHeads(0, nil, make([]float64, 2)); err == nil {
		t.Fatal("short tank-heads slice should error")
	}
	if _, _, err := s.SolveSteadyRetryHeads(0, nil, make([]float64, 5), RetryPolicy{}); err == nil {
		t.Fatal("long tank-heads slice should error")
	}
}

// TestGridSparseSolves exercises the grid scale: a 2,116-junction grid
// solves with sound hydraulics.
func TestGridSparseSolves(t *testing.T) {
	net := network.BuildGrid(network.GridConfig{Rows: 46, Cols: 46})
	s, err := NewSolver(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveSteady(8*time.Hour, []Emitter{{Node: 1000, Coeff: 0.001}}, nil)
	if err != nil {
		t.Fatalf("SolveSteady: %v", err)
	}
	if mbe := s.MassBalanceError(res); mbe > 1e-5 {
		t.Fatalf("mass balance error %v", mbe)
	}
	for i := range net.Nodes {
		if net.Nodes[i].Type != network.Junction {
			continue
		}
		if p := res.Pressure[i]; p < 5 || p > 90 {
			t.Fatalf("junction %d pressure %v m outside sane range", i, p)
		}
	}
}

// TestFactorizationTelemetry pins the linear-algebra instruments.
func TestFactorizationTelemetry(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	s, err := NewSolver(network.BuildWSSCSubnet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("hydraulic_symbolic_factorizations_total").Value(); got != 1 {
		t.Fatalf("symbolic factorizations = %d, want 1", got)
	}
	if fill := reg.Gauge("hydraulic_factor_fill_ratio").Value(); fill < 1 {
		t.Fatalf("fill ratio = %v, want >= 1", fill)
	}
	res, err := s.SolveSteady(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("hydraulic_numeric_factorizations_total").Value(); got != int64(res.Iterations) {
		t.Fatalf("numeric factorizations = %d, want %d", got, res.Iterations)
	}
	if got := reg.Histogram("hydraulic_linear_solve_seconds", nil).Count(); got != int64(res.Iterations) {
		t.Fatalf("solve latency observations = %d, want %d", got, res.Iterations)
	}
}

// BenchmarkSolveSteadyGrid measures one full steady solve across network
// scales, from WSSC-SUBNET (298 junctions) to a 4,096-junction grid.
func BenchmarkSolveSteadyGrid(b *testing.B) {
	cases := []struct {
		name string
		net  *network.Network
	}{
		{"wssc-sparse", network.BuildWSSCSubnet()},
		{"grid-1024", network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32})},
		{"grid-2116", network.BuildGrid(network.GridConfig{Rows: 46, Cols: 46})},
		{"grid-4096", network.BuildGrid(network.GridConfig{Rows: 64, Cols: 64})},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/nj=%d", tc.name, tc.net.JunctionCount()), func(b *testing.B) {
			s, err := NewSolver(tc.net, Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.SolveSteady(0, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveSteadyFour measures one block of four leak scenarios,
// solved as four SolveSteady calls (scalar) and as one SolveSteadyFour
// (four): the lever behind every scenario sweep.
func BenchmarkSolveSteadyFour(b *testing.B) {
	for _, net := range []*network.Network{
		network.BuildEPANet(),
		network.BuildWSSCSubnet(),
		network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32}),
	} {
		junctions := net.JunctionIndices()
		var em [Lanes][]Emitter
		for l := range em {
			for k := range 3 {
				em[l] = append(em[l], Emitter{Node: junctions[(l*7+k*13)*len(junctions)/97%len(junctions)], Coeff: 1e-3})
			}
		}
		s, err := NewSolver(net, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(net.Name+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for l := range em {
					if _, err := s.SolveSteady(8*time.Hour, em[l], nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(net.Name+"/four", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ok := s.SolveSteadyFour(8*time.Hour, &em, Lanes); ok != [Lanes]bool{true, true, true, true} {
					b.Fatalf("lanes converged: %v", ok)
				}
			}
		})
	}
}
