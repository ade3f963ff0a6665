package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/social"
	"github.com/aquascale/aquascale/internal/telemetry"
	"github.com/aquascale/aquascale/internal/weather"
)

// Sources toggles the information sources used during Phase-II inference —
// the paper's evaluation strategies (IoT only, +Temp, +Human, all).
type Sources struct {
	Weather bool
	Human   bool
}

// Observation is one live Phase-II input.
type Observation struct {
	// Features are the IoT reading deltas (aligned with the sensor set).
	Features []float64

	// Frozen marks nodes detected frozen (nil when weather is unused).
	Frozen []bool

	// Cliques is the human-input evidence (nil when unused).
	Cliques []social.Clique
}

// System is a trained AquaSCALE instance for one network and sensor set.
//
// Every field but the live record is immutable after NewSystem, and the
// record (profile, scatter plan, baseline memo) is held behind one
// atomic pointer, so one System is safe to share across goroutines:
// concurrent Localize calls may run against a concurrent SetProfile
// hot-swap and always see a complete, checked profile.
type System struct {
	net     *network.Network
	factory *dataset.Factory
	live    atomic.Pointer[installed]
	engine  *fusion.Engine
	freeze  weather.FreezeModel
	social  social.Config
}

// SystemConfig wires a System.
type SystemConfig struct {
	// Profile selects the Phase-I technique.
	Profile ProfileConfig

	// Fusion configures Phase II.
	Fusion fusion.Config

	// Freeze is the freeze model (zero means the paper's 0.8/0.9).
	Freeze weather.FreezeModel

	// Social configures tweet-stream simulation.
	Social social.Config
}

// NewSystem builds an untrained system around a data factory.
func NewSystem(factory *dataset.Factory, net *network.Network, cfg SystemConfig) *System {
	freeze := cfg.Freeze
	if freeze == (weather.FreezeModel{}) {
		freeze = weather.DefaultFreezeModel
	}
	fcfg := cfg.Fusion
	fcfg.Freeze = freeze
	return &System{
		net:     net,
		factory: factory,
		engine:  fusion.NewEngine(fcfg),
		freeze:  freeze,
		social:  cfg.Social,
	}
}

// Network returns the system's network.
func (s *System) Network() *network.Network { return s.net }

// Factory returns the system's data factory.
func (s *System) Factory() *dataset.Factory { return s.factory }

// Social returns the system's social-sensing configuration (the same
// parameters Observe uses to synthesize and clique-ify reports), so
// online ingestion can build cliques identically to the offline path.
func (s *System) Social() social.Config { return s.social }

// Train runs Phase I: generate a training dataset and fit the profile.
func (s *System) Train(samples int, cfg ProfileConfig, rng *rand.Rand) error {
	return s.TrainContext(context.Background(), samples, cfg, rng)
}

// TrainContext is Train with cancellation: dataset generation observes
// ctx between scenarios (see dataset.Factory.GenerateContext), and a
// cancelled context aborts before fitting and returns ctx.Err() without
// touching any installed profile. For a given rng seed an uncancelled
// TrainContext is bit-identical to Train.
func (s *System) TrainContext(ctx context.Context, samples int, cfg ProfileConfig, rng *rand.Rand) error {
	ds, err := s.factory.GenerateContext(ctx, samples, rng)
	if err != nil {
		return err
	}
	return s.TrainOn(ds, cfg)
}

// TrainOn fits the profile on a pre-built dataset and installs it
// compiled, the way SetProfile does.
func (s *System) TrainOn(ds *dataset.Dataset, cfg ProfileConfig) error {
	p, err := TrainProfile(ds, len(s.net.Nodes), cfg)
	if err != nil {
		return err
	}
	return s.install(p)
}

// Profile returns the installed profile (nil before Train).
func (s *System) Profile() *Profile {
	if rec := s.live.Load(); rec != nil {
		return rec.profile
	}
	return nil
}

// Localize runs Phase II on one observation: profile prediction, then
// freeze-evidence fusion, then human-input event tuning. It returns the
// fused prediction and the nodes added by human input.
//
// Localize is safe for concurrent use — it reads the live record once
// and touches no mutable System state — and is deterministic: the result
// depends only on the observation and the installed profile. It
// evaluates through the compiled profile, which is bit-identical to
// Profile.PredictProba.
func (s *System) Localize(obs Observation) (*fusion.Prediction, []int, error) {
	return s.LocalizeContext(context.Background(), obs)
}

// LocalizeContext is Localize with per-request trace propagation: when
// ctx carries a telemetry.Trace (see telemetry.ContextWithTrace) the
// evaluation records its stage events — the compiled eval and the
// junction scatter — onto it. An untraced context adds one nil check and
// nothing else; the result is identical either way.
func (s *System) LocalizeContext(ctx context.Context, obs Observation) (*fusion.Prediction, []int, error) {
	pred := &fusion.Prediction{Proba: make([]float64, len(s.net.Nodes))}
	added, err := s.localizeInto(pred, obs, telemetry.TraceFrom(ctx))
	if err != nil {
		return nil, nil, err
	}
	return pred, added, nil
}

// LocalizeInto is Localize writing into a caller-owned prediction whose
// Proba buffer has one slot per network node; the evaluation itself is
// allocation-free. Reusing pred across calls overwrites earlier results,
// so callers must not retain predictions they hand back in.
func (s *System) LocalizeInto(pred *fusion.Prediction, obs Observation) ([]int, error) {
	return s.localizeInto(pred, obs, nil)
}

// LocalizeIntoContext is LocalizeInto with per-request trace propagation
// (see LocalizeContext). With no trace on ctx it preserves the
// zero-allocation contract bit for bit — the tracing hooks cost one nil
// check each, the same contract the telemetry registry honors.
func (s *System) LocalizeIntoContext(ctx context.Context, pred *fusion.Prediction, obs Observation) ([]int, error) {
	return s.localizeInto(pred, obs, telemetry.TraceFrom(ctx))
}

func (s *System) localizeInto(pred *fusion.Prediction, obs Observation, tr *telemetry.Trace) ([]int, error) {
	rec := s.live.Load()
	if rec == nil {
		return nil, fmt.Errorf("core: system not trained")
	}
	if len(pred.Proba) != len(s.net.Nodes) {
		return nil, fmt.Errorf("core: prediction buffer has %d slots, network has %d",
			len(pred.Proba), len(s.net.Nodes))
	}
	// Install checked the profile's width against the sensor count, so
	// this check is all that keeps evaluation inside the feature vector.
	if n := s.factory.SensorCount(); len(obs.Features) != n {
		return nil, fmt.Errorf("core: observation has %d features, deployment has %d sensors",
			len(obs.Features), n)
	}
	tr.Event(telemetry.StageEvalCompiled)
	if err := rec.model.PredictProbaInto(obs.Features, pred.Proba); err != nil {
		return nil, err
	}
	tr.EventValue(telemetry.StageJunctionScatter, float64(len(rec.model.junctions)))
	return s.engine.Refine(pred, obs.Frozen, obs.Cliques)
}

// ColdScenario is a leak scenario caused by low temperature: leak
// locations are drawn from the frozen-pipe subset, and the frozen mask is
// what Phase II observes as weather evidence.
type ColdScenario struct {
	leak.Scenario

	// Frozen marks nodes whose service pipes froze (per the paper's
	// per-run draw against p(freeze)).
	Frozen []bool
}

// GenerateColdScenario draws one cold-weather multi-failure scenario: each
// junction freezes with p(freeze); the leak locations are sampled from the
// frozen set (freeze→burst causality), with the event count uniform in
// [cfg.MinEvents, cfg.MaxEvents] and log-uniform sizes.
func (s *System) GenerateColdScenario(cfg leak.GeneratorConfig, rng *rand.Rand) (ColdScenario, error) {
	if rng == nil {
		return ColdScenario{}, fmt.Errorf("core: nil rng")
	}
	d, err := s.newColdDraw(cfg)
	if err != nil {
		return ColdScenario{}, err
	}
	return d.next(rng, make([]bool, len(s.net.Nodes))), nil
}

// coldDraw draws cold scenarios from one validated configuration,
// reusing its junction list and scratch buffers across draws.
type coldDraw struct {
	cfg       leak.GeneratorConfig
	pFreeze   float64
	junctions []int
	frozenJ   []int // the frozen junctions of the current draw
	perm      []int
	events    leak.EventBuffer
}

func (s *System) newColdDraw(cfg leak.GeneratorConfig) (*coldDraw, error) {
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 1
	}
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = 5
	}
	if cfg.MinSize <= 0 {
		cfg.MinSize = 3e-4
	}
	if cfg.MaxSize <= 0 {
		cfg.MaxSize = 3e-3
	}
	if cfg.MinEvents > cfg.MaxEvents || cfg.MinSize > cfg.MaxSize {
		return nil, fmt.Errorf("core: invalid cold-scenario bounds")
	}
	return &coldDraw{cfg: cfg, pFreeze: s.freeze.PFreeze, junctions: s.net.JunctionIndices()}, nil
}

// next draws one scenario into frozen, a zeroed mask with one entry per
// node that the scenario keeps.
func (d *coldDraw) next(rng *rand.Rand, frozen []bool) ColdScenario {
	d.frozenJ = d.frozenJ[:0]
	for _, v := range d.junctions {
		if rng.Float64() < d.pFreeze {
			frozen[v] = true
			d.frozenJ = append(d.frozenJ, v)
		}
	}
	if len(d.frozenJ) == 0 {
		// Degenerate draw: freeze at least one pipe so a cold failure can
		// occur.
		v := d.junctions[rng.Intn(len(d.junctions))]
		frozen[v] = true
		d.frozenJ = append(d.frozenJ, v)
	}

	cfg := d.cfg
	count := cfg.MinEvents
	if span := cfg.MaxEvents - cfg.MinEvents; span > 0 {
		count += rng.Intn(span + 1)
	}
	if count > len(d.frozenJ) {
		count = len(d.frozenJ)
	}
	d.perm = leak.PermPrefix(rng, len(d.frozenJ), count, d.perm)
	events := d.events.Take(count)
	logMin, logMax := math.Log(cfg.MinSize), math.Log(cfg.MaxSize)
	for i, pi := range d.perm {
		events[i] = leak.Event{
			Node:  d.frozenJ[pi],
			Size:  math.Exp(logMin + rng.Float64()*(logMax-logMin)),
			Start: cfg.Start,
		}
	}
	return ColdScenario{Scenario: leak.Scenario{Events: events}, Frozen: frozen}
}

// ObserveOptions controls observation simulation for one scenario.
type ObserveOptions struct {
	// Sources selects which evidence channels populate the observation.
	Sources Sources

	// ElapsedSlots is n, the time slots since leak onset — governs how
	// many human reports have accumulated. Zero means 1.
	ElapsedSlots int

	// GammaM is the tweet coarseness γ in meters. Zero means 30 (the
	// paper's default for the fusion experiments).
	GammaM float64
}

// Freeze-burst detection rates for the pressure-pattern analyzer (the
// paper's "if v is detected to be frozen": continued freezing raises
// pressure before the burst drops it, and that increase-then-decrease
// signature is what the detector fires on). A true freeze-burst is
// detected with probability p(freeze) = 0.8; a frozen-but-intact pipe
// false-fires with probability 1 − p(leak|freeze) = 0.1. The resulting
// likelihood ratio (8) matches the 9× posterior-odds multiplier Algorithm
// 2 applies, so the fused evidence is calibrated.
const (
	freezeDetectRate    = 0.8
	freezeFalseFireRate = 0.1
)

// Observe simulates the live data a deployed AquaSCALE would see for a
// scenario: noisy IoT reading deltas, the detected-frozen mask (if weather
// is enabled), and tweet-derived cliques (if human input is enabled).
//
// This is the documented slow path: every call constructs a fresh
// hydraulic solver session and tweet generator. Loops over many scenarios
// should go through Evaluate/EvaluateParallel, which amortize that setup
// across scenarios via per-worker observers. For a given rng state the
// observation is identical either way.
func (s *System) Observe(sc ColdScenario, opt ObserveOptions, rng *rand.Rand) (Observation, error) {
	o, err := s.newObserver()
	if err != nil {
		return Observation{}, err
	}
	obs, _, err := s.observeWith(o, sc, opt, rng)
	return obs, err
}

// EvalResult summarizes an evaluation run.
type EvalResult struct {
	// MeanHamming is the paper's headline metric, averaged over the
	// scenarios that completed (Evaluated).
	MeanHamming float64

	// Scenarios is the number of test scenarios requested.
	Scenarios int

	// Evaluated is the number of scenarios that completed; it falls
	// short of Scenarios only when failures were skipped.
	Evaluated int

	// HumanAdded is the total number of nodes forced by human input.
	HumanAdded int

	// Retries is the total number of solver re-attempts consumed across
	// all scenarios (including skipped ones).
	Retries int

	// Skipped lists scenarios dropped after retry exhaustion, in
	// evaluation order. Empty on clean runs.
	Skipped []dataset.SkippedScenario
}
