// Command aquabench regenerates the paper's evaluation figures. Every
// table and figure of the evaluation section has an experiment id; run one
// with -run <id> or all of them with -run all. Experiment sizes default to
// a CI-friendly scale; -train/-test raise them toward the paper's
// 20000/2000.
//
// Examples:
//
//	aquabench -list
//	aquabench -run fig6
//	aquabench -run all -train 2000 -test 200 -out results.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/aquascale/aquascale"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aquabench:", err)
		os.Exit(1)
	}
}

// run is the command body; it writes results to stdout and returns the
// first error, a failed write to stdout included.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aquabench", flag.ContinueOnError)
	var (
		list       = fs.Bool("list", false, "list experiment ids and exit")
		runID      = fs.String("run", "", "experiment id to run, or 'all'")
		train      = fs.Int("train", 0, "training scenarios (0 = default 600; paper 20000)")
		test       = fs.Int("test", 0, "test scenarios (0 = default 60; paper 2000)")
		seed       = fs.Int64("seed", 1, "random seed")
		workers    = fs.Int("workers", 0, "evaluation worker goroutines (0 = all CPUs, 1 = serial; figures are identical for any value at a fixed seed)")
		retries    = fs.Int("retries", 0, "solver retry budget on non-convergence (stepped relaxation + warm restart; 0 = no retry)")
		fDropout   = fs.Float64("fault-dropout", 0, "injected per-sensor dropout probability (reading lost, sanitized to a neutral feature)")
		fStuck     = fs.Float64("fault-stuck", 0, "injected per-sensor stuck-at probability (sensor repeats its pre-leak reading)")
		fNaN       = fs.Float64("fault-nan", 0, "injected per-sensor NaN-reading probability")
		fSolver    = fs.Float64("fault-solver", 0, "injected per-solve forced non-convergence probability")
		fAttempts  = fs.Int("fault-solver-attempts", 1, "forced failures per hit solve (above -retries makes the scenario skip)")
		outPath    = fs.String("out", "", "also write results to this file")
		metricsOut = fs.String("metrics-out", "", "write a JSON telemetry snapshot to this file on exit")
		httpAddr   = fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		progress   = fs.Duration("progress", 0, "print a telemetry heartbeat to stderr at this interval (e.g. 10s; 0 = off)")
	)
	technique := aquascale.TechniqueHybridRSL
	fs.TextVar(&technique, "technique", technique, "profile classifier for fusion experiments")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, id := range aquascale.ExperimentIDs() {
			if _, err := fmt.Fprintln(stdout, id); err != nil {
				return err
			}
		}
		return nil
	}
	if *runID == "" {
		return fmt.Errorf("nothing to do: pass -run <id> or -list")
	}

	// Telemetry is always on in the harness: the per-figure timing lines
	// are read from its spans, so console output and -metrics-out report
	// the same numbers. Enabling it does not change figure values (pinned
	// by TestTelemetryDoesNotChangeScores).
	reg := aquascale.EnableTelemetry()
	if *httpAddr != "" {
		srv, addr, err := reg.StartServer(*httpAddr)
		if err != nil {
			return fmt.Errorf("telemetry endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /debug/pprof on http://%s\n", addr)
	}
	if *progress > 0 {
		stop := reg.StartHeartbeat(os.Stderr, *progress)
		defer stop()
	}
	if *metricsOut != "" {
		defer func() {
			if err := reg.WriteJSONFile(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "aquabench: metrics-out:", err)
			}
		}()
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	scale := aquascale.ExperimentScale{
		TrainSamples:  *train,
		TestScenarios: *test,
		Seed:          *seed,
		Technique:     technique,
		Workers:       *workers,
		Retries:       *retries,
		Faults: aquascale.FaultConfig{
			Dropout:            *fDropout,
			Stuck:              *fStuck,
			NaN:                *fNaN,
			SolverFail:         *fSolver,
			SolverFailAttempts: *fAttempts,
		},
	}
	effectiveWorkers := *workers
	if effectiveWorkers <= 0 {
		effectiveWorkers = runtime.NumCPU()
	}
	experiments := aquascale.Experiments()

	var ids []string
	if *runID == "all" {
		ids = aquascale.ExperimentIDs()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			id = strings.TrimSpace(id)
			if _, ok := experiments[id]; !ok {
				return fmt.Errorf("unknown experiment %q (try -list)", id)
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		fig, err := experiments[id](scale)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if err := fig.Render(out); err != nil {
			return err
		}
		// The figure ran inside its telemetry span; report that span's
		// measurement so this line and the metrics JSON agree exactly.
		elapsed := reg.SpanStats(aquascale.ExperimentSpanName(id)).Last()
		if _, err := fmt.Fprintf(out, "[%s completed in %v, workers=%d]\n\n",
			id, elapsed.Round(time.Millisecond), effectiveWorkers); err != nil {
			return err
		}
	}
	return nil
}
