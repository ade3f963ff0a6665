// Command aquad is the AquaSCALE localization daemon: it loads a profile
// trained offline (aquatrain -save), rebuilds the matching sensor
// deployment, and serves online localization over HTTP/JSON.
//
// Endpoints: POST /v1/observe (submit an observation; add "wait": true or
// ?wait=1 for a synchronous answer), GET /v1/localize/{job}, GET
// /v1/trace/{job} (replay a request's stage timeline), GET /v1/status,
// POST /v1/profile (hot-swap), GET /debug/requests (the flight recorder),
// plus /metrics, /metrics.json and /debug/pprof from the telemetry layer.
//
// Every observe response carries an X-Trace-Id header; inbound W3C
// traceparent headers are honored (the id is adopted, a set sampled flag
// forces capture). Structured JSON request logs go to stdout (-log text
// for key=value, -log off to silence).
//
// The -net, -iot and -seed flags must match the aquatrain invocation that
// produced the profile — sensor placement is seeded, and a profile only
// fits the feature vector of its own deployment. Startup checks only the
// profile's node count and its feature width against the sensor count:
// a profile saved under another -seed with the same -iot has the same
// width, so it loads and serves, reading the wrong sensor columns. The
// profile does not yet carry the deployment's fingerprint that would
// catch this.
//
// Example:
//
//	aquatrain -net epanet -iot 30 -seed 1 -save profile.gob
//	aquad -profile profile.gob -net epanet -iot 30 -seed 1 -addr localhost:8080
//	curl -s localhost:8080/v1/status
//
// # Fleet mode
//
// -fleet MANIFEST serves many districts from one daemon instead of
// -profile: each district gets its own installed profile, queue and
// result window carved from the shared -workers budget, and the API
// nests under /v1/districts/{id}/... (observe, localize, trace, status,
// profile, requests, drain) with a fleet-wide GET /v1/status. The
// manifest is JSON:
//
//	{"districts": [
//	  {"id": "north", "profile": "north.gob", "net": "test", "iot": 30, "seed": 1},
//	  {"id": "south", "profile": "south.gob", "net": "test", "iot": 60, "seed": 2}
//	]}
//
// Per-district net/iot/seed default to the daemon's -net/-iot/-seed
// flags when omitted, and must match each profile's training run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/aquascale/aquascale"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aquad:", err)
		os.Exit(1)
	}
}

// run is the daemon body, parameterized for testing: it serves until ctx
// is cancelled, then drains and exits. The bound address is printed to
// out as "serving on http://ADDR".
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aquad", flag.ContinueOnError)
	var (
		profilePath  = fs.String("profile", "", "trained profile to serve (from aquatrain -save); this or -fleet is required")
		fleetPath    = fs.String("fleet", "", "fleet manifest (JSON) serving many districts from one daemon; this or -profile is required")
		netName      = fs.String("net", "epanet", "network: epanet, wssc or test (must match training)")
		iotPct       = fs.Float64("iot", 30, "IoT deployment percentage (must match training)")
		seed         = fs.Int64("seed", 1, "random seed (must match training)")
		addr         = fs.String("addr", "localhost:8080", "HTTP listen address (port 0 picks a free one)")
		workers      = fs.Int("workers", 0, "localization workers (0 = all CPUs); in fleet mode the shared budget split across districts")
		queueSize    = fs.Int("queue", 0, "job queue bound (0 = 1024); beyond it submissions get 429")
		timeout      = fs.Duration("timeout", 0, "per-request deadline from enqueue (0 = 5s)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "shutdown drain budget for in-flight jobs")
		gamma        = fs.Float64("gamma", 30, "default tweet coarseness gamma in meters")
		fSlow        = fs.Float64("fault-request-slow", 0, "injected per-request slow-localize probability")
		fDelay       = fs.Duration("fault-request-delay", 0, "injected delay for a slowed request (0 = 50ms)")
		fFail        = fs.Float64("fault-request-fail", 0, "injected per-request forced-failure probability")
		traceSample  = fs.Float64("trace-sample", 0, "head-based trace sampling fraction (0 = capture all, <0 = sampled captures off; errors and slow requests are always captured)")
		traceSlow    = fs.Duration("trace-slow", 0, "latency above which a request trace is always captured (0 = 250ms)")
		traceBuffer  = fs.Int("trace-buffer", 0, "flight-recorder capacity in traces (0 = 256, <0 = tracing off)")
		logMode      = fs.String("log", "json", "structured request logging: json, text or off")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*profilePath == "") == (*fleetPath == "") {
		return fmt.Errorf("need exactly one of -profile or -fleet (train one with: aquatrain -save profile.gob)")
	}

	var logger *slog.Logger
	switch *logMode {
	case "json":
		logger = aquascale.NewLogger(out, slog.LevelInfo)
	case "text":
		logger = aquascale.NewTextLogger(out, slog.LevelInfo)
	case "off":
	default:
		return fmt.Errorf("unknown -log mode %q (want json, text or off)", *logMode)
	}

	// Bind telemetry before building the solver-backed factory so every
	// component's handles land on the registry the daemon serves; the
	// runtime health gauges poll onto the same registry until shutdown.
	reg := aquascale.EnableTelemetry()
	stopGauges := reg.StartRuntimeGauges(0)
	defer stopGauges()

	cfg := aquascale.ServeConfig{
		Workers:            *workers,
		QueueSize:          *queueSize,
		RequestTimeout:     *timeout,
		GammaM:             *gamma,
		TraceSample:        *traceSample,
		TraceSlowThreshold: *traceSlow,
		TraceBuffer:        *traceBuffer,
		Logger:             logger,
		Faults: aquascale.FaultConfig{
			RequestSlow:  *fSlow,
			RequestDelay: *fDelay,
			RequestFail:  *fFail,
		},
	}

	var (
		handler  http.Handler
		shutdown func(context.Context) error
	)
	if *fleetPath != "" {
		fleet, err := buildFleet(*fleetPath, fleetDistrict{Net: *netName, IoT: *iotPct, Seed: *seed}, cfg, out)
		if err != nil {
			return err
		}
		handler = fleet.Handler()
		shutdown = fleet.Shutdown
	} else {
		built, err := buildSystem(*netName, *iotPct, *seed, *profilePath)
		if err != nil {
			return err
		}
		server, err := aquascale.NewServer(built.sys, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "aquad: %s profile on %s (%d nodes, %d sensors), %d workers, queue %d\n",
			built.profile.Technique(), built.nw.Name, len(built.nw.Nodes), built.sensors,
			server.Config().Workers, server.Config().QueueSize)
		handler = server.Handler()
		shutdown = server.Shutdown
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	fmt.Fprintf(out, "serving on http://%s\n", ln.Addr())

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting HTTP first, then let in-flight
	// localizations finish within the drain budget.
	fmt.Fprintln(out, "aquad: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	fmt.Fprintln(out, "aquad: drained cleanly")
	return nil
}

// builtSystem is one rebuilt deployment ready to serve.
type builtSystem struct {
	sys     *aquascale.System
	nw      *aquascale.Network
	profile *aquascale.Profile
	sensors int
}

// buildSystem rebuilds the sensor deployment exactly as aquatrain placed
// it (same baseline EPS, same k-medoids count, same seed+3 stream), then
// loads the profile onto it.
func buildSystem(netName string, iotPct float64, seed int64, profilePath string) (*builtSystem, error) {
	nw, err := buildNetwork(netName)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(profilePath)
	if err != nil {
		return nil, err
	}
	profile, err := aquascale.LoadProfile(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("load profile %s: %w", profilePath, err)
	}

	baseline, err := aquascale.RunEPS(nw, aquascale.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		return nil, err
	}
	placer, err := aquascale.NewPlacer(nw, baseline)
	if err != nil {
		return nil, err
	}
	sensors, err := placer.KMedoids(placer.CountForPercent(iotPct), rand.New(rand.NewSource(seed+3)))
	if err != nil {
		return nil, err
	}
	factory, err := aquascale.NewFactory(nw, sensors, aquascale.DatasetConfig{
		Noise: aquascale.DefaultSensorNoise,
	})
	if err != nil {
		return nil, err
	}
	sys := aquascale.NewSystem(factory, nw, aquascale.SystemConfig{})
	if err := sys.SetProfile(profile); err != nil {
		return nil, fmt.Errorf("profile %s does not fit this deployment (check net/iot/seed): %w", profilePath, err)
	}
	return &builtSystem{sys: sys, nw: nw, profile: profile, sensors: factory.SensorCount()}, nil
}

// fleetDistrict is one -fleet manifest entry.
type fleetDistrict struct {
	ID      string  `json:"id"`
	Profile string  `json:"profile"`
	Net     string  `json:"net"`
	IoT     float64 `json:"iot"`
	Seed    int64   `json:"seed"`
}

// parseFleetManifest decodes a -fleet manifest and checks it whole before
// anything is built: it needs at least one district and a profile for
// each. Omitted net/iot/seed take def's values; unknown fields are
// ignored.
func parseFleetManifest(raw []byte, def fleetDistrict) ([]fleetDistrict, error) {
	var m struct {
		Districts []fleetDistrict `json:"districts"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	if len(m.Districts) == 0 {
		return nil, fmt.Errorf("no districts")
	}
	for i := range m.Districts {
		d := &m.Districts[i]
		if d.Profile == "" {
			return nil, fmt.Errorf("district %q has no profile", d.ID)
		}
		if d.Net == "" {
			d.Net = def.Net
		}
		if d.IoT == 0 {
			d.IoT = def.IoT
		}
		if d.Seed == 0 {
			d.Seed = def.Seed
		}
	}
	return m.Districts, nil
}

// buildFleet reads a fleet manifest, rebuilds every district's deployment
// and starts the fleet over the shared worker budget, printing one
// summary line per district.
func buildFleet(path string, def fleetDistrict, cfg aquascale.ServeConfig, out io.Writer) (*aquascale.Fleet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	manifest, err := parseFleetManifest(raw, def)
	if err != nil {
		return nil, fmt.Errorf("fleet manifest %s: %w", path, err)
	}

	districts := make([]aquascale.FleetDistrict, 0, len(manifest))
	for _, d := range manifest {
		built, err := buildSystem(d.Net, d.IoT, d.Seed, d.Profile)
		if err != nil {
			return nil, fmt.Errorf("district %q: %w", d.ID, err)
		}
		districts = append(districts, aquascale.FleetDistrict{ID: d.ID, Sys: built.sys})
		fmt.Fprintf(out, "aquad: district %s: %s profile on %s (%d nodes, %d sensors)\n",
			d.ID, built.profile.Technique(), built.nw.Name, len(built.nw.Nodes), built.sensors)
	}
	fleet, err := aquascale.NewFleet(districts, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "aquad: fleet of %d districts, %d workers total\n", len(fleet.Districts()), fleet.Workers())
	return fleet, nil
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
