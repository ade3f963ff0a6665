// Floodcascade: the paper's Fig-11 storyline — from pipe failure to
// neighborhood inundation.
//
// Two mains burst on WSSC-SUBNET. The hydraulic engine computes their
// pressure-dependent discharge (eq. 1); that outflow feeds the
// shallow-water flood model over a DEM interpolated from node elevations,
// and the example prints the growing inundation as the response clock
// runs: this is what a water agency would use for damage control and
// evacuation planning.
//
// Run with: go run ./examples/floodcascade
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/aquascale/aquascale"
)

func main() {
	net := aquascale.BuildWSSCSubnet()
	solver, err := aquascale.NewSolver(net, aquascale.SolverOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// Two bursts: a large one on a distribution main, a smaller service
	// failure farther downhill.
	v1, _ := net.NodeIndex("W150")
	v2, _ := net.NodeIndex("W230")
	res, err := solver.SolveSteady(8*time.Hour, []aquascale.Emitter{
		{Node: v1, Coeff: 8e-3},
		{Node: v2, Coeff: 3e-3},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	q1, q2 := res.EmitterFlow[v1], res.EmitterFlow[v2]
	fmt.Printf("burst at %s: %.1f L/s (pressure %.1f m)\n",
		net.Nodes[v1].ID, q1*1000, res.Pressure[v1])
	fmt.Printf("burst at %s: %.1f L/s (pressure %.1f m)\n\n",
		net.Nodes[v2].ID, q2*1000, res.Pressure[v2])

	dem, err := aquascale.NewDEM(net, 40, 2)
	if err != nil {
		log.Fatal(err)
	}
	dem.AddRoughness(0.25, 5) // urban micro-topography: curbs, ditches
	sources := []aquascale.FloodSource{
		{X: net.Nodes[v1].X, Y: net.Nodes[v1].Y, Rate: func(time.Duration) float64 { return q1 }},
		{X: net.Nodes[v2].X, Y: net.Nodes[v2].Y, Rate: func(time.Duration) float64 { return q2 }},
	}

	fmt.Println("elapsed  released(m3)  area>1cm(m2)  area>10cm(m2)  peak depth(m)")
	for _, horizon := range []time.Duration{15 * time.Minute, time.Hour, 3 * time.Hour} {
		sim, err := aquascale.SimulateFlood(dem, sources, aquascale.FloodConfig{Duration: horizon})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%7v  %12.0f  %12.0f  %13.0f  %13.3f\n",
			horizon, sim.InflowVolume,
			sim.FloodedArea(dem, 0.01), sim.FloodedArea(dem, 0.10),
			sim.GlobalMaxDepth())
	}
	fmt.Println("\nuse cmd/aquaflood for the full ASCII inundation map")
}
