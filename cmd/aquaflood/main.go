// Command aquaflood simulates the cascading flood impact of pipe failures:
// leaks discharge at their pressure-dependent rate (eq. 1 of the paper)
// onto a DEM interpolated from the network's node elevations, and a
// shallow-water model spreads the water over the terrain.
//
// Example:
//
//	aquaflood -net wssc -leak W150:0.004 -leak W230:0.0015 -duration 2h
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/aquascale/aquascale"
)

type leakSpec struct {
	node string
	size float64
}

type leakSpecs []leakSpec

func (l *leakSpecs) String() string { return fmt.Sprintf("%d leaks", len(*l)) }

func (l *leakSpecs) Set(v string) error {
	node, sizeStr, ok := strings.Cut(v, ":")
	if !ok {
		return fmt.Errorf("leak spec %q: want NODE:SIZE", v)
	}
	size, err := strconv.ParseFloat(sizeStr, 64)
	if err != nil || size <= 0 {
		return fmt.Errorf("leak spec %q: bad size %q", v, sizeStr)
	}
	*l = append(*l, leakSpec{node: node, size: size})
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aquaflood:", err)
		os.Exit(1)
	}
}

// run is the command body; it writes the report to out and returns the
// first error, a failed write to out included.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aquaflood", flag.ContinueOnError)
	var (
		netName  = fs.String("net", "wssc", "network: epanet, wssc or test")
		duration = fs.Duration("duration", 2*time.Hour, "flood simulation span")
		cell     = fs.Float64("cell", 40, "DEM cell size in meters")
		rough    = fs.Float64("rough", 0.25, "DEM micro-topography roughness std in meters")
		leaks    leakSpecs
	)
	fs.Var(&leaks, "leak", "leak NODE:SIZE (repeatable); SIZE is EC in m^3/s per m^0.5")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(leaks) == 0 {
		return fmt.Errorf("at least one -leak NODE:SIZE is required")
	}

	var net *aquascale.Network
	switch *netName {
	case "epanet":
		net = aquascale.BuildEPANet()
	case "wssc":
		net = aquascale.BuildWSSCSubnet()
	case "test":
		net = aquascale.BuildTestNet()
	default:
		return fmt.Errorf("unknown network %q", *netName)
	}

	solver, err := aquascale.NewSolver(net, aquascale.SolverOptions{})
	if err != nil {
		return err
	}
	emitters := make([]aquascale.Emitter, 0, len(leaks))
	for _, spec := range leaks {
		idx, ok := net.NodeIndex(spec.node)
		if !ok {
			return fmt.Errorf("unknown node %q", spec.node)
		}
		emitters = append(emitters, aquascale.Emitter{Node: idx, Coeff: spec.size})
	}
	res, err := solver.SolveSteady(8*time.Hour, emitters, nil)
	if err != nil {
		return err
	}

	dem, err := aquascale.NewDEM(net, *cell, 2)
	if err != nil {
		return err
	}
	dem.AddRoughness(*rough, 5)
	// A bufio.Writer keeps the first write error, so the one Flush below
	// reports a lost report.
	w := bufio.NewWriter(out)
	var sources []aquascale.FloodSource
	fmt.Fprintln(w, "leak discharge (pressure-dependent, eq. 1):")
	for _, e := range emitters {
		q := res.EmitterFlow[e.Node]
		node := net.Nodes[e.Node]
		fmt.Fprintf(w, "  %s: %.1f L/s at %.1f m pressure head\n", node.ID, q*1000, res.Pressure[e.Node])
		sources = append(sources, aquascale.FloodSource{
			X: node.X, Y: node.Y,
			Rate: func(time.Duration) float64 { return q },
		})
	}

	sim, err := aquascale.SimulateFlood(dem, sources, aquascale.FloodConfig{Duration: *duration})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nafter %v:\n", *duration)
	fmt.Fprintf(w, "  released volume:     %.0f m3\n", sim.InflowVolume)
	fmt.Fprintf(w, "  flooded area >1 cm:  %.0f m2\n", sim.FloodedArea(dem, 0.01))
	fmt.Fprintf(w, "  flooded area >10 cm: %.0f m2\n", sim.FloodedArea(dem, 0.10))

	fmt.Fprintln(w, "\nmax-depth map ('.': <1cm, ':': <5cm, '*': <20cm, '#': >=20cm):")
	printDepthMap(w, dem, sim)
	return w.Flush()
}

func printDepthMap(w io.Writer, dem *aquascale.DEM, sim *aquascale.FloodResult) {
	const maxW, maxH = 70, 30
	stepX := (dem.Width + maxW - 1) / maxW
	stepY := (dem.Height + maxH - 1) / maxH
	if stepX < 1 {
		stepX = 1
	}
	if stepY < 1 {
		stepY = 1
	}
	for y0 := dem.Height - 1; y0 >= 0; y0 -= stepY {
		var sb strings.Builder
		for x0 := 0; x0 < dem.Width; x0 += stepX {
			peak := 0.0
			for dy := 0; dy < stepY && y0-dy >= 0; dy++ {
				for dx := 0; dx < stepX && x0+dx < dem.Width; dx++ {
					if d := sim.MaxDepth[(y0-dy)*dem.Width+x0+dx]; d > peak {
						peak = d
					}
				}
			}
			switch {
			case peak >= 0.20:
				sb.WriteByte('#')
			case peak >= 0.05:
				sb.WriteByte('*')
			case peak >= 0.01:
				sb.WriteByte(':')
			case peak > 0:
				sb.WriteByte('.')
			default:
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
}
