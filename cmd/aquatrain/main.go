// Command aquatrain runs Phase I of the AquaSCALE workflow: place IoT
// sensors, generate a leak-scenario dataset through the hydraulic engine,
// train a profile model with a chosen plug-and-play technique, and report
// held-out localization quality.
//
// Examples:
//
//	aquatrain -net epanet -iot 30 -samples 2000 -technique hybrid-rsl
//	aquatrain -net wssc -iot 10 -samples 500 -technique rf -max-leaks 5
//
// Out-of-core mode streams the scenario corpus through disk shards
// instead of holding it in RAM, and both generation and training are
// restartable after an interrupt:
//
//	aquatrain -net wssc -samples 20000 -corpus-out /data/corpus
//	aquatrain -net wssc -samples 20000 -corpus-out /data/corpus -resume
//	aquatrain -net wssc -samples 20000 -corpus-in /data/corpus
//
// Without -resume, training starts fresh: a training checkpoint left in
// the corpus directory by an earlier run is discarded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"github.com/aquascale/aquascale"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "aquatrain:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aquatrain", flag.ContinueOnError)
	var (
		netName    = fs.String("net", "epanet", "network: epanet, wssc or test")
		iotPct     = fs.Float64("iot", 30, "IoT deployment percentage of |V|+|E| candidate locations")
		samples    = fs.Int("samples", 1000, "training scenarios (paper: 20000)")
		testN      = fs.Int("test", 100, "held-out test scenarios (paper: 2000)")
		minLeaks   = fs.Int("min-leaks", 1, "minimum concurrent leak events")
		maxLeaks   = fs.Int("max-leaks", 5, "maximum concurrent leak events")
		seed       = fs.Int64("seed", 1, "random seed")
		retries    = fs.Int("retries", 0, "solver retry budget on non-convergence (stepped relaxation + warm restart; 0 = no retry)")
		fDropout   = fs.Float64("fault-dropout", 0, "injected per-sensor dropout probability (reading lost, sanitized to a neutral feature)")
		fStuck     = fs.Float64("fault-stuck", 0, "injected per-sensor stuck-at probability (sensor repeats its pre-leak reading)")
		fNaN       = fs.Float64("fault-nan", 0, "injected per-sensor NaN-reading probability")
		fSolver    = fs.Float64("fault-solver", 0, "injected per-solve forced non-convergence probability")
		fAttempts  = fs.Int("fault-solver-attempts", 1, "forced failures per hit solve (above -retries makes the scenario skip)")
		corpusOut  = fs.String("corpus-out", "", "generate the training corpus as shards in this directory and train from the stream (out-of-core)")
		corpusIn   = fs.String("corpus-in", "", "train from an existing corpus directory (skips generation; must match -net/-iot/-seed and the generation flags)")
		shardSamps = fs.Int("shard-samples", 1024, "scenarios per corpus shard (with -corpus-out)")
		resume     = fs.Bool("resume", false, "resume an interrupted corpus run: keep verified shards and the training checkpoint")
		savePath   = fs.String("save", "", "write the trained profile to this file (gob)")
		metricsOut = fs.String("metrics-out", "", "write a JSON telemetry snapshot to this file on exit")
		httpAddr   = fs.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		progress   = fs.Duration("progress", 0, "print a telemetry heartbeat to stderr at this interval (e.g. 10s; 0 = off)")
	)
	technique := aquascale.TechniqueHybridRSL
	fs.TextVar(&technique, "technique", technique,
		"classifier: "+strings.Join(aquascale.ClassifierNames(), ", "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *corpusOut != "" && *corpusIn != "" {
		return fmt.Errorf("-corpus-out and -corpus-in are mutually exclusive")
	}

	// Enable instrumentation before any solver or factory is built, so
	// their telemetry handles bind to this registry. Enabling never
	// changes results at a fixed seed.
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
				fmt.Fprintln(os.Stderr, "aquatrain: metrics-out:", err)
			}
		}()
	}

	net, err := buildNetwork(*netName)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "network %s: %d nodes, %d links\n", net.Name, len(net.Nodes), len(net.Links))

	start := time.Now()
	baseline, err := aquascale.RunEPSContext(ctx, net, aquascale.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		return err
	}
	placer, err := aquascale.NewPlacer(net, baseline)
	if err != nil {
		return err
	}
	count := placer.CountForPercent(*iotPct)
	sensors, err := placer.KMedoids(count, rand.New(rand.NewSource(*seed+3)))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "placed %d sensors (%.0f%% of %d candidate locations) by k-medoids\n",
		len(sensors), *iotPct, placer.CandidateCount())

	leakCfg := aquascale.LeakGeneratorConfig{MinEvents: *minLeaks, MaxEvents: *maxLeaks}
	factory, err := aquascale.NewFactory(net, sensors, aquascale.DatasetConfig{
		Noise: aquascale.DefaultSensorNoise,
		Leaks: leakCfg,
		Retry: aquascale.RetryPolicy{MaxRetries: *retries},
		Faults: aquascale.FaultConfig{
			Dropout:            *fDropout,
			Stuck:              *fStuck,
			NaN:                *fNaN,
			SolverFail:         *fSolver,
			SolverFailAttempts: *fAttempts,
		},
	})
	if err != nil {
		return err
	}

	profCfg := aquascale.ProfileConfig{Technique: technique, Seed: *seed + 77}
	var profile *aquascale.Profile
	if *corpusOut != "" || *corpusIn != "" {
		profile, err = trainOutOfCore(ctx, factory, net, outOfCoreOptions{
			out:          *corpusOut,
			in:           *corpusIn,
			samples:      *samples,
			seed:         *seed,
			shardSamples: *shardSamps,
			resume:       *resume,
		}, profCfg, out)
		if err != nil {
			return err
		}
	} else {
		fmt.Fprintf(out, "generating %d training scenarios...\n", *samples)
		ds, err := factory.Generate(*samples, rand.New(rand.NewSource(*seed+11)))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "dataset ready in %v (%d features per sample)\n",
			time.Since(start).Round(time.Millisecond), factory.SensorCount())
		if len(ds.Skipped) > 0 {
			fmt.Fprintf(out, "skipped %d/%d scenarios after retry exhaustion (first: scenario %d, %d retries: %v)\n",
				len(ds.Skipped), *samples, ds.Skipped[0].Index, ds.Skipped[0].Retries, ds.Skipped[0].Err)
		}

		trainStart := time.Now()
		profile, err = aquascale.TrainProfileContext(ctx, ds, len(net.Nodes), profCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "trained %s profile (%d per-node classifiers) in %v\n",
			technique, len(ds.Junctions), time.Since(trainStart).Round(time.Millisecond))
	}

	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := profile.Save(f); err != nil {
			f.Close()
			return fmt.Errorf("save profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "profile saved to %s\n", *savePath)
	}

	// Held-out evaluation.
	gen, err := aquascale.NewLeakGenerator(net, leakCfg, rand.New(rand.NewSource(*seed+101)))
	if err != nil {
		return err
	}
	evalRng := rand.New(rand.NewSource(*seed + 103))
	sess, err := factory.NewSession()
	if err != nil {
		return err
	}
	total, detectLatency, skippedEval := 0.0, time.Duration(0), 0
	for i := 0; i < *testN; i++ {
		sc := gen.Next()
		sample, err := sess.FromScenario(sc, evalRng)
		if err != nil {
			if errors.Is(err, aquascale.ErrNotConverged) {
				skippedEval++
				continue
			}
			return err
		}
		t0 := time.Now()
		pred, err := profile.Predict(sample.Features)
		if err != nil {
			return err
		}
		detectLatency += time.Since(t0)
		total += aquascale.HammingScore(pred, sc.Labels(len(net.Nodes)))
	}
	evaluated := *testN - skippedEval
	if evaluated == 0 {
		return fmt.Errorf("all %d held-out scenarios failed after retries", *testN)
	}
	if skippedEval > 0 {
		fmt.Fprintf(out, "skipped %d/%d held-out scenarios after retry exhaustion\n", skippedEval, *testN)
	}
	fmt.Fprintf(out, "held-out mean Hamming score over %d scenarios: %.3f\n", evaluated, total/float64(evaluated))
	fmt.Fprintf(out, "mean online inference latency: %v per scenario\n",
		(detectLatency / time.Duration(evaluated)).Round(time.Microsecond))
	return nil
}

// outOfCoreOptions bundles the corpus-mode flags.
type outOfCoreOptions struct {
	out, in      string
	samples      int
	seed         int64
	shardSamples int
	resume       bool
}

// trainOutOfCore runs the streamed generate→train pipeline: shards on
// disk instead of an in-RAM dataset, resumable on both sides, and
// bit-identical to the in-memory path at the same -seed. Ctrl-C stops
// between scenarios/shards; a rerun with -resume picks up where it left
// off; without -resume a stale training checkpoint is discarded first.
func trainOutOfCore(ctx context.Context, factory *aquascale.Factory, net *aquascale.Network, opt outOfCoreOptions, cfg aquascale.ProfileConfig, out io.Writer) (*aquascale.Profile, error) {
	dir := opt.in
	if opt.out != "" {
		dir = opt.out
		genStart := time.Now()
		fmt.Fprintf(out, "generating %d training scenarios into %s (shards of %d)...\n",
			opt.samples, opt.out, opt.shardSamples)
		// Seed +11 matches the in-memory Generate path, so the corpus is
		// bit-compatible with a plain `aquatrain -seed N` run.
		res, err := factory.GenerateCorpus(ctx, opt.samples, opt.seed+11, opt.out, aquascale.CorpusOptions{
			ShardSamples: opt.shardSamples,
			Resume:       opt.resume,
		})
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "aquatrain: interrupted; completed shards are verified — rerun with -resume to continue")
			}
			return nil, err
		}
		fmt.Fprintf(out, "corpus ready in %v: %d shards (%d written, %d resumed), %d samples, %.1f MiB\n",
			time.Since(genStart).Round(time.Millisecond), res.Shards, res.ShardsWritten,
			res.ShardsResumed, res.Samples, float64(res.Bytes)/(1<<20))
		if res.SkippedScenarios > 0 {
			fmt.Fprintf(out, "skipped %d/%d scenarios after retry exhaustion\n", res.SkippedScenarios, opt.samples)
		}
	}

	r, err := aquascale.OpenCorpus(dir)
	if err != nil {
		return nil, err
	}
	// Fail fast when the corpus was generated for a different deployment
	// or generation config than this invocation rebuilt.
	if err := r.Match(factory); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "training %s profile from %d streamed samples (%d shards)...\n",
		cfg.Technique, r.SampleCount(), r.Shards())

	trainStart := time.Now()
	ckpt := filepath.Join(dir, "train.ckpt")
	if !opt.resume {
		if err := os.Remove(ckpt); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	profile, err := aquascale.TrainProfileFromCorpus(ctx, r, len(net.Nodes), cfg, aquascale.CorpusTrainOptions{
		CheckpointPath: ckpt,
	})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "aquatrain: interrupted; fitted classifiers are checkpointed in %s — rerun with -resume to continue\n", ckpt)
		}
		return nil, err
	}
	fmt.Fprintf(out, "trained %s profile (%d per-node classifiers) in %v\n",
		cfg.Technique, len(r.Junctions()), time.Since(trainStart).Round(time.Millisecond))
	return profile, nil
}

func buildNetwork(name string) (*aquascale.Network, error) {
	switch name {
	case "epanet":
		return aquascale.BuildEPANet(), nil
	case "wssc":
		return aquascale.BuildWSSCSubnet(), nil
	case "test":
		return aquascale.BuildTestNet(), nil
	default:
		return nil, fmt.Errorf("unknown network %q (want epanet, wssc or test)", name)
	}
}
