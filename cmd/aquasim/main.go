// Command aquasim runs hydraulic simulations on a water network: build or
// load a network, inject leak events, run an extended-period simulation,
// and dump sensor-grade pressure/flow series as CSV or JSON.
//
// Examples:
//
//	aquasim -net epanet -duration 4h -leak J45:0.002:30m
//	aquasim -net wssc -format json -leak W150:0.004:0s -leak W230:0.0015:0s
//	aquasim -net my-network.inp -duration 2h
package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/aquascale/aquascale"
)

// leakSpec stores a raw -leak flag; node ids are resolved after the
// network loads.
type leakSpec struct {
	node  string
	size  float64
	start time.Duration
}

type leakSpecs []leakSpec

func (l *leakSpecs) String() string { return fmt.Sprintf("%d leaks", len(*l)) }

func (l *leakSpecs) Set(v string) error {
	parts := strings.Split(v, ":")
	if len(parts) != 3 {
		return fmt.Errorf("leak spec %q: want NODE:SIZE:START (e.g. J45:0.002:30m)", v)
	}
	size, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || size <= 0 {
		return fmt.Errorf("leak spec %q: bad size %q", v, parts[1])
	}
	start, err := time.ParseDuration(parts[2])
	if err != nil || start < 0 {
		return fmt.Errorf("leak spec %q: bad start %q", v, parts[2])
	}
	*l = append(*l, leakSpec{node: parts[0], size: size, start: start})
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aquasim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aquasim", flag.ContinueOnError)
	var (
		netName  = fs.String("net", "epanet", "network: epanet, wssc, test, or a path to an INP file")
		duration = fs.Duration("duration", 4*time.Hour, "simulated time span")
		step     = fs.Duration("step", 15*time.Minute, "hydraulic / sampling step")
		format   = fs.String("format", "csv", "output format: csv or json")
		what     = fs.String("series", "pressure", "series to dump: pressure or flow")
		leaks    leakSpecs
	)
	fs.Var(&leaks, "leak", "leak event NODE:SIZE:START (repeatable); SIZE is EC in m^3/s per m^0.5")
	if err := fs.Parse(args); err != nil {
		return err
	}

	net, err := loadNetwork(*netName)
	if err != nil {
		return err
	}
	emitters := make([]aquascale.ScheduledEmitter, 0, len(leaks))
	for _, spec := range leaks {
		idx, ok := net.NodeIndex(spec.node)
		if !ok {
			return fmt.Errorf("unknown node %q in network %s", spec.node, net.Name)
		}
		emitters = append(emitters, aquascale.ScheduledEmitter{
			Node: idx, Coeff: spec.size, Start: spec.start,
		})
	}

	ts, err := aquascale.RunEPS(net, aquascale.EPSOptions{Duration: *duration, Step: *step}, emitters)
	if err != nil {
		return err
	}

	switch *format {
	case "csv":
		return writeCSV(out, net, ts, *what)
	case "json":
		return writeJSON(out, net, ts, *what)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
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
	net, err := aquascale.ReadINP(f)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

func writeCSV(out io.Writer, net *aquascale.Network, ts *aquascale.TimeSeries, what string) error {
	w := csv.NewWriter(out)
	header := []string{"time_min"}
	switch what {
	case "pressure":
		for i := range net.Nodes {
			header = append(header, net.Nodes[i].ID)
		}
	case "flow":
		for i := range net.Links {
			header = append(header, net.Links[i].ID)
		}
	default:
		return fmt.Errorf("unknown series %q", what)
	}
	if err := w.Write(header); err != nil {
		return err
	}
	for k := range ts.Times {
		row := []string{strconv.FormatFloat(ts.Times[k].Minutes(), 'f', 1, 64)}
		var vals []float64
		if what == "pressure" {
			vals = ts.Pressure[k]
		} else {
			vals = ts.Flow[k]
		}
		for _, v := range vals {
			row = append(row, strconv.FormatFloat(v, 'f', 6, 64))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

type jsonOutput struct {
	Network string               `json:"network"`
	Series  string               `json:"series"`
	IDs     []string             `json:"ids"`
	TimeMin []float64            `json:"timeMinutes"`
	Values  [][]float64          `json:"values"`
	Leaks   []map[string]float64 `json:"leakOutflow,omitempty"`
}

func writeJSON(w io.Writer, net *aquascale.Network, ts *aquascale.TimeSeries, what string) error {
	out := jsonOutput{Network: net.Name, Series: what}
	switch what {
	case "pressure":
		for i := range net.Nodes {
			out.IDs = append(out.IDs, net.Nodes[i].ID)
		}
		out.Values = ts.Pressure
	case "flow":
		for i := range net.Links {
			out.IDs = append(out.IDs, net.Links[i].ID)
		}
		out.Values = ts.Flow
	default:
		return fmt.Errorf("unknown series %q", what)
	}
	for k := range ts.Times {
		out.TimeMin = append(out.TimeMin, ts.Times[k].Minutes())
		leakMap := make(map[string]float64)
		for node, q := range ts.EmitterOutflow[k] {
			leakMap[net.Nodes[node].ID] = q
		}
		out.Leaks = append(out.Leaks, leakMap)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
