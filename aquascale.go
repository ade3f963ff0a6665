// Package aquascale is the public API of the AquaSCALE reproduction: a
// cyber-physical-human framework for localizing pipe failures in community
// water networks (Han et al., ICDCS 2017).
//
// The package re-exports the supported surface of the internal modules:
//
//   - Water-network modeling and the two evaluation networks (EPA-NET,
//     WSSC-SUBNET), plus an EPANET INP subset reader/writer.
//   - The EPANET++-equivalent hydraulic engine: steady-state Global
//     Gradient solves with pressure-dependent leak emitters, and
//     extended-period simulation with tank dynamics.
//   - IoT sensor modeling with k-medoids placement.
//   - Leak scenario generation, the Phase-I data factory and profile
//     training with plug-and-play classifiers, and Phase-II multi-source
//     fusion (weather evidence, tweet-derived cliques).
//   - The flood (cascading-impact) simulator.
//   - The experiment harness that regenerates every figure of the paper.
//   - The online localization service (Server) behind the aquad daemon.
//
// # Constructor conventions
//
// The API follows two constructor prefixes. Build* functions return
// canned artifacts with no knobs — the evaluation networks
// (BuildEPANet, BuildWSSCSubnet, BuildTestNet, BuildGrid) arrive ready
// to use and never fail. New* functions wire configured components
// (NewSolver, NewFactory, NewSystem, NewServer, …): they take a config
// struct, validate it, and return an error when the pieces don't fit.
//
// Every long-running entry point has a Context spelling —
// RunEPSContext, TrainProfileContext, SimulateFloodContext,
// Factory.GenerateContext, System.TrainContext,
// System.EvaluateParallelContext, Factory.GenerateCorpus,
// TrainProfileFromCorpus — that observes cancellation at its loop
// boundaries (between solver steps, scenario dispatches, per-junction
// classifier fits): in-flight work finishes, partial state is never
// published, and the error is ctx.Err(). The context-free spellings
// (RunEPS, TrainProfile, SimulateFlood, …) are documented one-line
// shorthands for the Context form with context.Background().
//
// Quickstart:
//
//	net := aquascale.BuildEPANet()
//	baseline, _ := aquascale.RunEPS(net, aquascale.EPSOptions{}, nil)
//	placer, _ := aquascale.NewPlacer(net, baseline)
//	sensors, _ := placer.KMedoids(60, rng)
//	factory, _ := aquascale.NewFactory(net, sensors, aquascale.DatasetConfig{})
//	sys := aquascale.NewSystem(factory, net, aquascale.SystemConfig{})
//	_ = sys.Train(2000, aquascale.ProfileConfig{Technique: aquascale.TechniqueHybridRSL}, rng)
package aquascale

import (
	"context"
	"io"
	"log/slog"
	"math/rand"

	"github.com/aquascale/aquascale/internal/bench"
	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/detect"
	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/flood"
	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
	"github.com/aquascale/aquascale/internal/serve"
	"github.com/aquascale/aquascale/internal/social"
	"github.com/aquascale/aquascale/internal/stats"
	"github.com/aquascale/aquascale/internal/telemetry"
	"github.com/aquascale/aquascale/internal/weather"
)

// Water-network modeling.
type (
	// Network is a community water distribution network.
	Network = network.Network
	// Node is a junction, reservoir or tank.
	Node = network.Node
	// Link is a pipe, pump or valve.
	Link = network.Link
	// Pattern is a demand-multiplier sequence.
	Pattern = network.Pattern
	// NodeType distinguishes junctions, reservoirs and tanks.
	NodeType = network.NodeType
	// LinkType distinguishes pipes, pumps and valves.
	LinkType = network.LinkType
	// LinkStatus is open or closed.
	LinkStatus = network.LinkStatus
)

// Node and link kinds.
const (
	Junction  = network.Junction
	Reservoir = network.Reservoir
	Tank      = network.Tank
	Pipe      = network.Pipe
	Pump      = network.Pump
	Valve     = network.Valve
	Open      = network.Open
	Closed    = network.Closed
)

// NewNetwork creates an empty network.
func NewNetwork(name string) *Network { return network.New(name) }

// BuildEPANet builds the canonical EPA-NET evaluation network (96 nodes,
// 118 pipes, 2 pumps, 1 valve, 3 tanks, 2 sources).
func BuildEPANet() *Network { return network.BuildEPANet() }

// BuildWSSCSubnet builds the WSSC-SUBNET evaluation network (299 nodes,
// 316 pipes, 2 valves, 1 source).
func BuildWSSCSubnet() *Network { return network.BuildWSSCSubnet() }

// BuildTestNet builds a small 8-node network for experimentation.
func BuildTestNet() *Network { return network.BuildTestNet() }

// GridConfig parameterizes BuildGrid (rows × cols, looping, sources, seed).
type GridConfig = network.GridConfig

// BuildGrid builds a synthetic looped distribution grid of Rows×Cols
// junctions — the scaling testbed for the sparse head solver (1k–10k+
// junctions are practical sizes).
func BuildGrid(cfg GridConfig) *Network { return network.BuildGrid(cfg) }

// ReadINP parses an EPANET INP subset.
func ReadINP(r io.Reader) (*Network, error) { return network.ReadINP(r) }

// WriteINP serializes a network in the INP subset.
func WriteINP(w io.Writer, n *Network) error { return network.WriteINP(w, n) }

// Hydraulic engine (EPANET++ equivalent).
type (
	// Solver computes steady-state hydraulics.
	Solver = hydraulic.Solver
	// SolverOptions configures convergence and the emitter exponent β.
	SolverOptions = hydraulic.Options
	// Emitter is a pressure-dependent leak discharge Q = EC·p^β.
	Emitter = hydraulic.Emitter
	// ScheduledEmitter is an emitter with an activation time.
	ScheduledEmitter = hydraulic.ScheduledEmitter
	// HydraulicResult is a steady-state snapshot.
	HydraulicResult = hydraulic.Result
	// EPSOptions configures extended-period simulation.
	EPSOptions = hydraulic.EPSOptions
	// TimeSeries is extended-period simulation output.
	TimeSeries = hydraulic.TimeSeries
)

// NewSolver prepares a steady-state solver for a network.
func NewSolver(n *Network, opts SolverOptions) (*Solver, error) {
	return hydraulic.NewSolver(n, opts)
}

// RunEPS runs an extended-period simulation. It is shorthand for
// RunEPSContext with context.Background().
func RunEPS(n *Network, opts EPSOptions, emitters []ScheduledEmitter) (*TimeSeries, error) {
	return hydraulic.RunEPS(n, opts, emitters)
}

// RunEPSContext is RunEPS with cancellation, checked between hydraulic
// steps.
func RunEPSContext(ctx context.Context, n *Network, opts EPSOptions, emitters []ScheduledEmitter) (*TimeSeries, error) {
	return hydraulic.RunEPSContext(ctx, n, opts, emitters)
}

// ErrNotConverged is returned when the hydraulic solver fails to converge.
var ErrNotConverged = hydraulic.ErrNotConverged

// ConvergenceError is the concrete non-convergence error, carrying the
// iteration count, last residual and simulation time of the failing solve.
// It wraps ErrNotConverged (errors.Is compatible).
type ConvergenceError = hydraulic.ConvergenceError

// Robustness: solver retry-with-degradation and fault injection.
type (
	// RetryPolicy bounds solver retry-with-degradation on
	// non-convergence: each retry halves the Newton update fraction and
	// warm-restarts from the last attempt's iterate.
	RetryPolicy = hydraulic.RetryPolicy
	// RetryStats reports the retries and warm restarts one solve used.
	RetryStats = hydraulic.RetryStats
	// FaultConfig sets deterministic fault-injection rates: sensor
	// dropout, stuck-at and NaN readings, plus forced solver
	// non-convergence (see internal/faults).
	FaultConfig = faults.Config
)

// Leak events and scenarios.
type (
	// LeakEvent is one pipe failure e = (l, s, t).
	LeakEvent = leak.Event
	// LeakScenario is a set of concurrent failures.
	LeakScenario = leak.Scenario
	// LeakGeneratorConfig bounds random scenario generation.
	LeakGeneratorConfig = leak.GeneratorConfig
	// LeakGenerator draws random failure scenarios.
	LeakGenerator = leak.Generator
)

// NewLeakGenerator builds a scenario generator.
func NewLeakGenerator(n *Network, cfg LeakGeneratorConfig, rng Rand) (*LeakGenerator, error) {
	return leak.NewGenerator(n, cfg, rng)
}

// IoT sensing.
type (
	// Sensor is one IoT device (pressure transducer or flow meter).
	Sensor = sensor.Sensor
	// SensorKind distinguishes pressure sensors and flow meters.
	SensorKind = sensor.Kind
	// SensorNoise is the Gaussian measurement-noise model.
	SensorNoise = sensor.Noise
	// Placer selects sensor locations (k-medoids or random).
	Placer = sensor.Placer
)

// Sensor kinds.
const (
	PressureSensor = sensor.Pressure
	FlowSensor     = sensor.Flow
)

// DefaultSensorNoise matches commodity district-metering instruments.
var DefaultSensorNoise = sensor.DefaultNoise

// NewPlacer builds a sensor placer from a leak-free baseline simulation.
func NewPlacer(n *Network, baseline *TimeSeries) (*Placer, error) {
	return sensor.NewPlacer(n, baseline)
}

// ReadSensors samples every sensor from a hydraulic snapshot.
func ReadSensors(sensors []Sensor, res *HydraulicResult, noise SensorNoise, rng Rand) []float64 {
	return sensor.Read(sensors, res, noise, rng)
}

// Phase-I data factory and profile.
type (
	// DatasetConfig controls training-sample generation.
	DatasetConfig = dataset.Config
	// Dataset is a feature/label set.
	Dataset = dataset.Dataset
	// DataSample is one training or test example.
	DataSample = dataset.Sample
	// Factory generates datasets from leak scenarios.
	Factory = dataset.Factory
	// FactorySession reuses one hydraulic solver across many samples —
	// open one per goroutine for hot loops (Factory.FromScenario is the
	// construct-a-solver-per-call slow path).
	FactorySession = dataset.Session
	// Profile is the trained per-node classifier bank.
	Profile = core.Profile
	// ProfileConfig selects the Phase-I technique.
	ProfileConfig = core.ProfileConfig
	// Technique is a typed plug-and-play classifier selector (implements
	// encoding.TextMarshaler/Unmarshaler for JSON bodies and flag.TextVar).
	Technique = core.Technique
	// ScenarioError wraps a scenario's solve failure with the retry count
	// consumed (errors.Is-compatible with ErrNotConverged).
	ScenarioError = dataset.ScenarioError
	// SkippedScenario records one scenario dropped from a generated
	// dataset or an evaluation run after retry exhaustion (see
	// Dataset.Skipped and EvalResult.Skipped).
	SkippedScenario = dataset.SkippedScenario
)

// NewFactory prepares a Phase-I data factory.
func NewFactory(n *Network, sensors []Sensor, cfg DatasetConfig) (*Factory, error) {
	return dataset.NewFactory(n, sensors, cfg)
}

// TrainProfile fits a profile model on a dataset (Algorithm 1). It is
// shorthand for TrainProfileContext with context.Background().
func TrainProfile(ds *Dataset, nodeCount int, cfg ProfileConfig) (*Profile, error) {
	return core.TrainProfile(ds, nodeCount, cfg)
}

// TrainProfileContext is TrainProfile with cancellation, checked
// between per-junction classifier dispatches.
func TrainProfileContext(ctx context.Context, ds *Dataset, nodeCount int, cfg ProfileConfig) (*Profile, error) {
	return core.TrainProfileContext(ctx, ds, nodeCount, cfg)
}

// LoadProfile reads a profile previously written by Profile.Save, so
// online deployments can skip Phase-I retraining.
func LoadProfile(r io.Reader) (*Profile, error) { return core.LoadProfile(r) }

// Profile techniques (the Fig-6 lineup plus the paper's chosen hybrid).
const (
	TechniqueLinear    = core.TechniqueLinear
	TechniqueLogistic  = core.TechniqueLogistic
	TechniqueGB        = core.TechniqueGB
	TechniqueRF        = core.TechniqueRF
	TechniqueSVM       = core.TechniqueSVM
	TechniqueHybridRSL = core.TechniqueHybridRSL
)

// Out-of-core scenario corpus (streamed shards on disk).
//
// Factory.GenerateCorpus writes a scenario corpus as checksummed binary
// shards; OpenCorpus streams it back with bounded resident memory; and
// System.TrainFromCorpus / TrainProfileFromCorpus train from the stream,
// bit-identical to the in-memory Generate+TrainOn path at the same seed.
// Both generation and training are restartable: generation resumes at
// shard granularity (-resume in aquatrain), training through an
// incremental per-junction checkpoint file. To split generation across
// hosts, each host runs Factory.GenerateShardRange over its own shard
// range of one CorpusPlan; the shard files copied into one directory
// form the corpus, and a GenerateCorpus resume fills any gap.
type (
	// CorpusOptions configures corpus generation (shard size, resume).
	CorpusOptions = dataset.CorpusOptions
	// CorpusResult summarizes a corpus generation run.
	CorpusResult = dataset.CorpusResult
	// CorpusPlan is the deterministic shard partition of one corpus
	// (Factory.PlanCorpus). Shards are pure functions of the plan, so
	// disjoint Factory.GenerateShardRange calls, on one host or
	// several, write the same bytes as one GenerateCorpus run.
	CorpusPlan = dataset.CorpusPlan
	// CorpusReader streams a corpus shard by shard.
	CorpusReader = dataset.CorpusReader
	// CorpusSample is one streamed sample; its buffers are only valid
	// during the Each callback.
	CorpusSample = dataset.CorpusSample
	// ShardHeader is the decoded metadata of one corpus shard.
	ShardHeader = dataset.ShardHeader
	// CorpusTrainOptions configures streaming training: the junction
	// window (columns fitted, and checkpointed, per batch) and the
	// checkpoint path.
	CorpusTrainOptions = core.CorpusTrainOptions
)

// ShardFormatVersion is the corpus shard wire-format version this build
// reads and writes. Readers reject other versions with ErrShardVersion.
const ShardFormatVersion = dataset.ShardFormatVersion

// Corpus error sentinels (errors.Is-compatible).
var (
	// ErrCorpusMismatch means a corpus or checkpoint belongs to a
	// different deployment, generation config or partition than this run.
	ErrCorpusMismatch = dataset.ErrCorpusMismatch
	// ErrShardFormat means a shard file is structurally invalid.
	ErrShardFormat = dataset.ErrShardFormat
	// ErrShardVersion means a shard was written by a different format
	// version.
	ErrShardVersion = dataset.ErrShardVersion
	// ErrShardTruncated means a shard file ends early (torn write).
	ErrShardTruncated = dataset.ErrShardTruncated
	// ErrShardChecksum means a shard's header or payload CRC failed.
	ErrShardChecksum = dataset.ErrShardChecksum
	// ErrCheckpointMismatch means a training checkpoint belongs to a
	// different corpus, profile seed or technique.
	ErrCheckpointMismatch = core.ErrCheckpointMismatch
)

// OpenCorpus opens a corpus directory written by Factory.GenerateCorpus,
// validating every shard header and the cross-shard partition.
func OpenCorpus(dir string) (*CorpusReader, error) { return dataset.OpenCorpus(dir) }

// VerifyShard checks one shard file end to end (header, CRCs, record
// structure) and returns its header.
func VerifyShard(path string) (ShardHeader, error) { return dataset.VerifyShard(path) }

// TrainProfileFromCorpus fits a profile model from a streamed corpus with
// bounded resident memory — bit-identical to TrainProfile on the
// equivalent in-memory dataset. With CorpusTrainOptions.CheckpointPath
// set, fitted classifiers are checkpointed incrementally and a rerun
// resumes past completed junctions.
func TrainProfileFromCorpus(ctx context.Context, r *CorpusReader, nodeCount int, cfg ProfileConfig, opt CorpusTrainOptions) (*Profile, error) {
	return core.TrainProfileFromCorpus(ctx, r, nodeCount, cfg, opt)
}

// ParseTechnique validates a technique name ("" means TechniqueHybridRSL);
// unknown names error with the valid list.
func ParseTechnique(s string) (Technique, error) { return core.ParseTechnique(s) }

// Techniques lists the registered techniques in sorted order.
func Techniques() []Technique { return core.Techniques() }

// ClassifierNames lists the registered plug-and-play techniques by name —
// always consistent with Techniques (both read the mlearn registry).
func ClassifierNames() []string { return mlearn.Names() }

// HammingScore is the paper's evaluation metric (Jaccard of leak sets) —
// the one canonical implementation every layer scores with.
func HammingScore(pred, truth []int) float64 { return mlearn.HammingScore(pred, truth) }

// HammingScoreProba is HammingScore with the prediction given as
// probabilities, thresholded at 0.5.
func HammingScoreProba(proba []float64, truth []int) float64 {
	return mlearn.HammingScoreProba(proba, truth)
}

// The AquaSCALE system (two-phase workflow).
type (
	// System is a trained AquaSCALE instance.
	System = core.System
	// SystemConfig wires a System.
	SystemConfig = core.SystemConfig
	// Sources toggles the Phase-II information sources.
	Sources = core.Sources
	// Observation is one live Phase-II input.
	Observation = core.Observation
	// ObserveOptions controls observation simulation.
	ObserveOptions = core.ObserveOptions
	// ColdScenario is a freeze-driven multi-failure scenario.
	ColdScenario = core.ColdScenario
	// EvalResult summarizes an evaluation run.
	EvalResult = core.EvalResult
)

// NewSystem builds an untrained AquaSCALE system.
func NewSystem(factory *Factory, n *Network, cfg SystemConfig) *System {
	return core.NewSystem(factory, n, cfg)
}

// Phase-II fusion.
type (
	// FusionConfig parameterizes Phase-II inference.
	FusionConfig = fusion.Config
	// FusionEngine runs Phase-II inference.
	FusionEngine = fusion.Engine
	// Prediction is the per-node leak belief.
	Prediction = fusion.Prediction
)

// NewFusionEngine creates a Phase-II fusion engine.
func NewFusionEngine(cfg FusionConfig) *FusionEngine { return fusion.NewEngine(cfg) }

// Weather modeling.
type (
	// WeatherSeries is a sampled ambient-temperature record.
	WeatherSeries = weather.Series
	// WeatherSeriesConfig configures temperature synthesis.
	WeatherSeriesConfig = weather.SeriesConfig
	// FreezeModel holds p(freeze) and p(leak|freeze).
	FreezeModel = weather.FreezeModel
	// BreakRateModel is the Fig-3 temperature/break-rate relationship.
	BreakRateModel = weather.BreakRateModel
)

// FreezeThresholdF is the paper's freezing-risk temperature (°F).
const FreezeThresholdF = weather.FreezeThresholdF

// DefaultFreezeModel uses the paper's 0.8/0.9 parameters.
var DefaultFreezeModel = weather.DefaultFreezeModel

// NewWeatherSeries synthesizes an ambient temperature series from a
// validated config.
func NewWeatherSeries(cfg WeatherSeriesConfig, rng Rand) (*WeatherSeries, error) {
	return weather.GenerateSeries(cfg, rng)
}

// Human input (social sensing).
type (
	// Report is one leak-related social media post.
	Report = social.Report
	// SocialConfig parameterizes the report stream (λ, p_e, scatter).
	SocialConfig = social.Config
	// Clique is a tweet-derived subzone c = {v : |l_c − l_v| < γ}.
	Clique = social.Clique
	// ReportGenerator draws synthetic report streams.
	ReportGenerator = social.Generator
)

// NewReportGenerator builds a tweet-stream generator for a network.
func NewReportGenerator(n *Network, cfg SocialConfig, rng Rand) (*ReportGenerator, error) {
	return social.NewGenerator(n, cfg, rng)
}

// BuildCliques groups reports into node cliques with eq.-3 confidence.
func BuildCliques(n *Network, reports []Report, gammaM, pe float64) []Clique {
	return social.BuildCliques(n, reports, gammaM, pe)
}

// TweetConfidence is eq. 3: p_t = 1 − p_e^k.
func TweetConfidence(pe float64, k int) float64 { return social.Confidence(pe, k) }

// FuseOdds combines probability assessments by Bayesian odds aggregation
// (eqs. 5–6).
func FuseOdds(probs ...float64) float64 { return stats.FuseOdds(probs...) }

// Flood modeling (cascading impact).
type (
	// DEM is a raster digital elevation model.
	DEM = flood.DEM
	// FloodSource is a point inflow (a surfacing leak).
	FloodSource = flood.Source
	// FloodConfig configures the shallow-water run.
	FloodConfig = flood.SimConfig
	// FloodResult holds the inundation output.
	FloodResult = flood.Result
)

// NewDEM interpolates a DEM from node elevations.
func NewDEM(n *Network, cellSize float64, marginCells int) (*DEM, error) {
	return flood.FromNetwork(n, cellSize, marginCells)
}

// SimulateFlood runs the local-inertial shallow-water model. It is
// shorthand for SimulateFloodContext with context.Background().
func SimulateFlood(dem *DEM, sources []FloodSource, cfg FloodConfig) (*FloodResult, error) {
	return flood.Simulate(dem, sources, cfg)
}

// SimulateFloodContext is SimulateFlood with cancellation, checked
// between adaptive time steps.
func SimulateFloodContext(ctx context.Context, dem *DEM, sources []FloodSource, cfg FloodConfig) (*FloodResult, error) {
	return flood.SimulateContext(ctx, dem, sources, cfg)
}

// Leak-onset detection (estimating e.t, which the paper assumes known).
type (
	// CUSUMConfig tunes one sensor's change detector.
	CUSUMConfig = detect.CUSUMConfig
	// CUSUM is a two-sided change detector with an adaptive baseline.
	CUSUM = detect.CUSUM
	// OnsetConfig tunes network-level onset detection.
	OnsetConfig = detect.OnsetConfig
	// Onset is a detected network change.
	Onset = detect.Onset
)

// NewCUSUM creates a per-sensor change detector.
func NewCUSUM(cfg CUSUMConfig) *CUSUM { return detect.NewCUSUM(cfg) }

// DetectOnset scans residual readings (readings[slot][sensor], observed
// minus expected) for the first slot at which the alarm quorum is reached.
func DetectOnset(readings [][]float64, cfg OnsetConfig) (Onset, bool, error) {
	return detect.DetectOnset(readings, cfg)
}

// Experiment harness.
type (
	// ExperimentScale sets experiment sizes (CI-sized vs paper-sized).
	ExperimentScale = bench.Scale
	// ExperimentFigure is a reproduced paper figure.
	ExperimentFigure = bench.Figure
	// ExperimentRunner generates one figure at a given scale.
	ExperimentRunner = bench.Runner
)

// Experiments maps experiment ids (fig2 … fig11, ablations) to runners.
// The returned map is the harness registry itself, built once and shared
// by every caller — treat it as read-only.
func Experiments() map[string]ExperimentRunner { return bench.Experiments() }

// ExperimentIDs lists experiment ids in presentation order.
func ExperimentIDs() []string { return bench.ExperimentIDs() }

// ExperimentSpanName is the telemetry span an experiment runs under —
// read it back (TelemetryDefault().SpanStats) to report the same timing
// the metrics exporters serialize.
func ExperimentSpanName(id string) string { return bench.FigureSpanName(id) }

// Online localization service (the aquad daemon's engine).
type (
	// Server is the long-running localization service: a bounded worker
	// pool over one shared System, with queue backpressure, request
	// timeouts, hot profile reload and graceful drain.
	Server = serve.Server
	// ServeConfig parameterizes a Server (workers, queue bound, timeout).
	ServeConfig = serve.Config
	// ObserveRequest is one live observation submitted to a Server.
	ObserveRequest = serve.ObserveRequest
	// ObserveReport is one geotagged human report in an ObserveRequest.
	ObserveReport = serve.ReportIn
	// LocalizeResult is one completed online localization.
	LocalizeResult = serve.Result
	// ServeStatus is the service health snapshot (GET /v1/status).
	ServeStatus = serve.Status
	// ServeJob is a queued/running/finished localization request.
	ServeJob = serve.Job
)

// Serving backpressure and shutdown sentinels.
var (
	// ErrQueueFull means the job queue is at capacity (HTTP 429).
	ErrQueueFull = serve.ErrQueueFull
	// ErrDraining means the server is shutting down (HTTP 503).
	ErrDraining = serve.ErrDraining
	// ErrEvicted means a job's finished result aged out of the bounded
	// result window (HTTP 410 Gone) — distinct from an unknown id (404).
	ErrEvicted = serve.ErrEvicted
)

// NewServer starts a localization service over a trained system.
func NewServer(sys *System, cfg ServeConfig) (*Server, error) { return serve.New(sys, cfg) }

// Fleet serving (many districts in one aquad).
type (
	// Fleet hosts many districts' localization services in one process:
	// per-district Servers carved from one shared worker budget, routed
	// by district id, draining and hot-swapping independently.
	Fleet = serve.Fleet
	// FleetDistrict names one trained System served under a district id.
	FleetDistrict = serve.District
	// FleetStatus is the fleet-wide health snapshot (GET /v1/status).
	FleetStatus = serve.FleetStatus
)

// NewFleet starts one localization service per district over a shared
// worker budget (ServeConfig.Workers is the fleet-wide total).
func NewFleet(districts []FleetDistrict, cfg ServeConfig) (*Fleet, error) {
	return serve.NewFleet(districts, cfg)
}

// Telemetry (metrics, spans, profiling hooks).
//
// The layer is off by default and free when off: instrumented components
// bind no-op handles. Call EnableTelemetry before constructing solvers,
// factories and systems; enabling it never changes results at a fixed
// seed.
type (
	// TelemetryRegistry holds named counters, gauges, histograms and spans,
	// with Prometheus/JSON exporters and an HTTP observability endpoint.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time JSON-serializable metrics copy.
	TelemetrySnapshot = telemetry.Snapshot
)

// EnableTelemetry installs a fresh global telemetry registry.
func EnableTelemetry() *TelemetryRegistry { return telemetry.Enable() }

// DisableTelemetry removes the global telemetry registry.
func DisableTelemetry() { telemetry.Disable() }

// TelemetryDefault returns the global registry, or nil when disabled
// (every method on the nil registry is a safe no-op).
func TelemetryDefault() *TelemetryRegistry { return telemetry.Default() }

// Per-request tracing and structured logging.
type (
	// TraceSnapshot is one completed request trace: the stage timeline a
	// Server's flight recorder retains and GET /v1/trace/{job} replays.
	TraceSnapshot = telemetry.TraceSnapshot
	// TraceRecorder is the bounded lock-free flight recorder behind
	// GET /debug/requests.
	TraceRecorder = telemetry.Recorder
	// RuntimeHealth is one poll of the process-health gauges
	// (goroutines, heap in-use, cumulative GC pause).
	RuntimeHealth = telemetry.RuntimeHealth
)

// NewLogger builds the project's structured logger: log/slog with a JSON
// handler, one object per line, trace-id-correlated via ServeConfig.Logger.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return telemetry.NewLogger(w, level)
}

// NewTextLogger is NewLogger with the human-readable key=value handler.
func NewTextLogger(w io.Writer, level slog.Level) *slog.Logger {
	return telemetry.NewTextLogger(w, level)
}

// ReadRuntimeHealth samples the Go runtime's health gauges once.
func ReadRuntimeHealth() RuntimeHealth { return telemetry.ReadRuntimeHealth() }

// Rand is the random source used across the API.
type Rand = *rand.Rand
