// Command aquanet inspects and converts water networks: element counts,
// pipe statistics, topology metrics, hydraulic health checks, and INP
// export of the built-in networks.
//
// Examples:
//
//	aquanet -net wssc -stats
//	aquanet -net epanet -check
//	aquanet -net epanet -map
//	aquanet -net epanet -export epanet.inp
//	aquanet -net my-network.inp -stats
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"

	"github.com/aquascale/aquascale"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aquanet:", err)
		os.Exit(1)
	}
}

// run is the command body; it writes the report to out and returns the
// first error, a failed write to out included.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aquanet", flag.ContinueOnError)
	var (
		netName = fs.String("net", "epanet", "network: epanet, wssc, test, or a path to an INP file")
		stats   = fs.Bool("stats", false, "print element counts and pipe statistics")
		check   = fs.Bool("check", false, "validate and run a hydraulic health check")
		showMap = fs.Bool("map", false, "draw an ASCII plan of the network (the paper's Fig 5)")
		export  = fs.String("export", "", "write the network as an INP file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*stats && !*check && !*showMap && *export == "" {
		*stats = true
	}

	net, err := loadNetwork(*netName)
	if err != nil {
		return err
	}
	// A bufio.Writer keeps the first write error, so one Flush reports a
	// lost report.
	w := bufio.NewWriter(out)
	if *stats {
		printStats(w, net)
	}
	if *check {
		if err := healthCheck(w, net); err != nil {
			w.Flush()
			return err
		}
	}
	if *showMap {
		printMap(w, net)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			return err
		}
		if err := aquascale.WriteINP(f, net); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(out, "wrote %s\n", *export); err != nil {
			return err
		}
	}
	return nil
}

func loadNetwork(name string) (*aquascale.Network, error) {
	switch name {
	case "epanet":
		return aquascale.BuildEPANet(), nil
	case "wssc":
		return aquascale.BuildWSSCSubnet(), nil
	case "test":
		return aquascale.BuildTestNet(), nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return aquascale.ReadINP(f)
}

func printStats(w io.Writer, net *aquascale.Network) {
	fmt.Fprintf(w, "network: %s\n", net.Name)
	fmt.Fprintf(w, "  nodes:      %d (%d junctions, %d reservoirs, %d tanks)\n",
		len(net.Nodes), net.JunctionCount(), net.ReservoirCount(), net.TankCount())
	fmt.Fprintf(w, "  links:      %d (%d pipes, %d pumps, %d valves)\n",
		len(net.Links), net.PipeCount(), net.PumpCount(), net.ValveCount())
	fmt.Fprintf(w, "  base demand: %.1f L/s total\n", net.TotalBaseDemand()*1000)

	// Pipe statistics.
	var lengths, diameters []float64
	totalLen := 0.0
	for i := range net.Links {
		l := &net.Links[i]
		if l.Type != aquascale.Pipe {
			continue
		}
		lengths = append(lengths, l.Length)
		diameters = append(diameters, l.Diameter)
		totalLen += l.Length
	}
	if len(lengths) > 0 {
		fmt.Fprintf(w, "  pipe length: %.1f km total, median %.0f m\n", totalLen/1000, median(lengths))
		fmt.Fprintf(w, "  diameters:   %.0f-%.0f mm, median %.0f mm\n",
			minOf(diameters)*1000, maxOf(diameters)*1000, median(diameters)*1000)
	}

	// Topology.
	g := net.Graph()
	degrees := make([]float64, 0, len(net.Nodes))
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		d := g.Degree(v)
		degrees = append(degrees, float64(d))
		if d > maxDeg {
			maxDeg = d
		}
	}
	loops := len(net.Links) - (len(net.Nodes) - 1)
	fmt.Fprintf(w, "  topology:    mean degree %.2f, max %d, %d independent loops, connected=%v\n",
		mean(degrees), maxDeg, loops, g.Connected())

	// Elevation range.
	minE, maxE := math.Inf(1), math.Inf(-1)
	for i := range net.Nodes {
		minE = math.Min(minE, net.Nodes[i].Elevation)
		maxE = math.Max(maxE, net.Nodes[i].Elevation)
	}
	fmt.Fprintf(w, "  elevations:  %.1f-%.1f m\n", minE, maxE)
}

func healthCheck(w io.Writer, net *aquascale.Network) error {
	if err := net.Validate(); err != nil {
		return fmt.Errorf("validation: %w", err)
	}
	fmt.Fprintln(w, "validation: ok")

	solver, err := aquascale.NewSolver(net, aquascale.SolverOptions{})
	if err != nil {
		return err
	}
	worstP, worstID := math.Inf(1), ""
	for _, at := range []time.Duration{3 * time.Hour, 8 * time.Hour, 18 * time.Hour} {
		res, err := solver.SolveSteady(at, nil, nil)
		if err != nil {
			return fmt.Errorf("steady solve at %v: %w", at, err)
		}
		low := 0
		for i := range net.Nodes {
			if net.Nodes[i].Type != aquascale.Junction {
				continue
			}
			if res.Pressure[i] < worstP {
				worstP, worstID = res.Pressure[i], net.Nodes[i].ID
			}
			if res.Pressure[i] < 15 {
				low++
			}
		}
		fmt.Fprintf(w, "hydraulics at %v: converged in %d iterations, %d junctions below 15 m\n",
			at, res.Iterations, low)
	}
	fmt.Fprintf(w, "worst junction pressure: %.1f m at %s\n", worstP, worstID)
	return nil
}

// printMap draws the node layout: o junction, R reservoir, T tank, with
// P/V marking pump/valve midpoints.
func printMap(w io.Writer, net *aquascale.Network) {
	const cols, rows = 78, 26
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for i := range net.Nodes {
		minX = math.Min(minX, net.Nodes[i].X)
		maxX = math.Max(maxX, net.Nodes[i].X)
		minY = math.Min(minY, net.Nodes[i].Y)
		maxY = math.Max(maxY, net.Nodes[i].Y)
	}
	spanX, spanY := maxX-minX, maxY-minY
	if spanX <= 0 {
		spanX = 1
	}
	if spanY <= 0 {
		spanY = 1
	}
	grid := make([][]byte, rows)
	for r := range grid {
		grid[r] = make([]byte, cols)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	plot := func(x, y float64, ch byte) {
		c := int((x - minX) / spanX * float64(cols-1))
		r := rows - 1 - int((y-minY)/spanY*float64(rows-1))
		if grid[r][c] == ' ' || ch != 'o' {
			grid[r][c] = ch
		}
	}
	for i := range net.Links {
		l := &net.Links[i]
		var ch byte
		switch l.Type {
		case aquascale.Pump:
			ch = 'P'
		case aquascale.Valve:
			ch = 'V'
		default:
			continue
		}
		plot((net.Nodes[l.From].X+net.Nodes[l.To].X)/2, (net.Nodes[l.From].Y+net.Nodes[l.To].Y)/2, ch)
	}
	for i := range net.Nodes {
		n := &net.Nodes[i]
		switch n.Type {
		case aquascale.Reservoir:
			plot(n.X, n.Y, 'R')
		case aquascale.Tank:
			plot(n.X, n.Y, 'T')
		default:
			plot(n.X, n.Y, 'o')
		}
	}
	fmt.Fprintf(w, "plan of %s (o junction, R reservoir, T tank, P pump, V valve):\n", net.Name)
	for _, row := range grid {
		line := string(row)
		for len(line) > 0 && line[len(line)-1] == ' ' {
			line = line[:len(line)-1]
		}
		fmt.Fprintln(w, line)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, v := range xs {
		m = math.Min(m, v)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, v := range xs {
		m = math.Max(m, v)
	}
	return m
}
