// Package dataset is the Phase-I data factory: it runs leak scenarios
// through the hydraulic engine, samples the IoT sensor set before and
// after leak onset, and emits feature/label pairs for profile training
// (paper Sec. IV-A).
//
// Features follow the paper: the change in each sensor's reading between
// the sampling instants e.t−1 and e.t+n, where n is the number of elapsed
// time slots after the leak. (The paper nominally adds the static topology
// vector T to every sample; constant features carry no per-sample
// information for a fixed network, so they are omitted from the feature
// matrix — the topology instead enters through the network-specific
// profile itself.)
//
// By default the factory uses snapshot mode: one steady solve per sample
// at the post-leak instant against a cached leak-free baseline. This is
// the paper's setting (leak effects within minutes-to-hours, tank drift
// negligible across the feature window) and keeps 20,000-scenario dataset
// generation tractable.
package dataset

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/par"
	"github.com/aquascale/aquascale/internal/randsrc"
	"github.com/aquascale/aquascale/internal/sensor"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// Config controls sample generation.
type Config struct {
	// ElapsedSlots is n: sampling intervals between leak onset and the
	// post-leak reading. Zero means 1.
	ElapsedSlots int

	// Step is the IoT sampling period. Zero means 15 minutes.
	Step time.Duration

	// BaseTime is the leak onset e.t within the demand-pattern day.
	// Zero means 08:00 (morning peak).
	BaseTime time.Duration

	// Noise is the sensor noise model (zero value means noise-free).
	Noise sensor.Noise

	// Leaks configures the scenario generator.
	Leaks leak.GeneratorConfig

	// Solver configures the hydraulic engine.
	Solver hydraulic.Options

	// Retry bounds solver retry-with-degradation on non-convergence
	// (stepped relaxation plus warm restart; see
	// hydraulic.SolveSteadyRetry). The zero value disables retry.
	Retry hydraulic.RetryPolicy

	// Faults enables deterministic fault injection — sensor dropout,
	// stuck-at and NaN readings plus forced solver non-convergence —
	// drawn from a stream derived from each scenario's seed. The zero
	// value injects nothing and leaves every random stream untouched.
	Faults faults.Config
}

func (c Config) withDefaults() Config {
	if c.ElapsedSlots <= 0 {
		c.ElapsedSlots = 1
	}
	if c.Step <= 0 {
		c.Step = 15 * time.Minute
	}
	if c.BaseTime == 0 {
		c.BaseTime = 8 * time.Hour
	}
	return c
}

// Sample is one training or test example.
type Sample struct {
	// Features is the per-sensor reading delta across leak onset.
	Features []float64

	// Labels is the per-junction ground truth (aligned with
	// Factory.Junctions()).
	Labels []int

	// Scenario is the generating leak scenario.
	Scenario leak.Scenario

	// Retries is the number of solver re-attempts this sample's leak
	// solve consumed (0 when the first attempt converged).
	Retries int

	// RetrySteps is the exact retry sequence (relaxation factor,
	// warm/cold restart, injected or real failure) behind Retries — nil
	// on clean first-attempt solves.
	RetrySteps []hydraulic.RetryStep
}

// ScenarioError wraps a scenario's hydraulic solve failure with the retry
// count consumed before giving up. It unwraps to the underlying solver
// error, so errors.Is(err, hydraulic.ErrNotConverged) keeps working.
type ScenarioError struct {
	Retries int
	Err     error

	// Steps is the retry ladder the failing solve walked before giving
	// up, in attempt order.
	Steps []hydraulic.RetryStep
}

// Error implements the error interface.
func (e *ScenarioError) Error() string {
	return fmt.Sprintf("dataset: leak solve failed after %d retries: %v", e.Retries, e.Err)
}

// Unwrap exposes the underlying solver error.
func (e *ScenarioError) Unwrap() error { return e.Err }

// SkippedScenario records one scenario dropped from a generated dataset
// or an evaluation run after retry exhaustion.
type SkippedScenario struct {
	// Index is the scenario's position in generation or evaluation
	// order.
	Index int

	// Scenario is the failing scenario itself, so callers can re-run or
	// inspect it.
	Scenario leak.Scenario

	// Err is the terminal solve error (errors.Is-compatible with
	// hydraulic.ErrNotConverged).
	Err error

	// Retries is the retry budget consumed before the skip.
	Retries int

	// Trace replays the scenario's solver retry ladder (one solver_retry
	// event per re-attempt with the relaxation factor, warm/cold restart
	// and injection provenance) so fault-tolerance reports can name the
	// exact degradation sequence instead of just counting retries.
	Trace *telemetry.TraceSnapshot
}

// Dataset is a set of samples with its feature/label geometry.
type Dataset struct {
	Samples   []Sample
	Junctions []int // junction node indices labeling the output columns

	// Skipped lists scenarios dropped after retry exhaustion, in
	// generation order. Empty on clean runs.
	Skipped []SkippedScenario
}

// X returns the feature matrix view.
func (d *Dataset) X() [][]float64 {
	out := make([][]float64, len(d.Samples))
	for i := range d.Samples {
		out[i] = d.Samples[i].Features
	}
	return out
}

// Y returns the label matrix view.
func (d *Dataset) Y() [][]int {
	out := make([][]int, len(d.Samples))
	for i := range d.Samples {
		out[i] = d.Samples[i].Labels
	}
	return out
}

// Factory generates datasets for one network and sensor set.
type Factory struct {
	net       *network.Network
	sensors   []sensor.Sensor
	cfg       Config
	inj       *faults.Injector // nil when fault injection is disabled
	junctions []int
	jIndex    map[int]int // node index → junction column

	// Leak-free baseline readings are cached per reading time so the
	// feature is the pure leak-induced change: the "before" reading is
	// the expected no-leak state at the same clock time as the post-leak
	// reading, which removes demand-pattern drift from the delta.
	mu         sync.Mutex
	baseSolver *hydraulic.Solver
	baseCache  map[time.Duration][]float64

	met factoryMetrics
}

// factoryMetrics are the factory's telemetry handles, bound once at
// NewFactory and shared by every session; all nil (free no-ops) when
// telemetry is disabled at construction time.
type factoryMetrics struct {
	samples        *telemetry.Counter
	sessionsOpened *telemetry.Counter
	sessionReuse   *telemetry.Counter
	baselineHits   *telemetry.Counter
	baselineMisses *telemetry.Counter
	retries        *telemetry.Counter
	skipped        *telemetry.Counter
	badFeatures    *telemetry.Counter
	sampleSeconds  *telemetry.Histogram // per-sample latency; a block's shared leak solve counts 1/lanes to each of its samples
}

func bindFactoryMetrics() factoryMetrics {
	reg := telemetry.Default()
	return factoryMetrics{
		samples:        reg.Counter("dataset_samples_generated_total"),
		sessionsOpened: reg.Counter("dataset_sessions_opened_total"),
		sessionReuse:   reg.Counter("dataset_session_reuse_total"),
		baselineHits:   reg.Counter("dataset_baseline_cache_hits_total"),
		baselineMisses: reg.Counter("dataset_baseline_cache_misses_total"),
		retries:        reg.Counter("dataset_retries_total"),
		skipped:        reg.Counter("dataset_skipped_total"),
		badFeatures:    reg.Counter("dataset_bad_features_total"),
		sampleSeconds:  reg.Histogram("dataset_sample_seconds", telemetry.ExpBuckets(1e-4, 2, 16)),
	}
}

// NewFactory prepares a factory: it validates the network, solves the
// leak-free baseline at e.t−1 once, and caches the noise-free baseline
// readings.
func NewFactory(net *network.Network, sensors []sensor.Sensor, cfg Config) (*Factory, error) {
	cfg = cfg.withDefaults()
	if len(sensors) == 0 {
		return nil, fmt.Errorf("dataset: no sensors")
	}
	solver, err := hydraulic.NewSolver(net, cfg.Solver)
	if err != nil {
		return nil, err
	}
	inj, err := faults.New(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	f := &Factory{
		net:        net,
		sensors:    append([]sensor.Sensor(nil), sensors...),
		cfg:        cfg,
		inj:        inj,
		junctions:  net.JunctionIndices(),
		baseSolver: solver,
		baseCache:  make(map[time.Duration][]float64),
		met:        bindFactoryMetrics(),
	}
	f.jIndex = make(map[int]int, len(f.junctions))
	for col, nodeIdx := range f.junctions {
		f.jIndex[nodeIdx] = col
	}
	// Fail fast if the network cannot sustain a baseline solve.
	if _, err := f.baselineAt(f.cfg.BaseTime); err != nil {
		return nil, fmt.Errorf("dataset: baseline solve: %w", err)
	}
	return f, nil
}

// baselineAt returns the cached noise-free leak-free readings at time t.
func (f *Factory) baselineAt(t time.Duration) ([]float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if vals, ok := f.baseCache[t]; ok {
		f.met.baselineHits.Inc()
		return vals, nil
	}
	f.met.baselineMisses.Inc()
	res, err := f.baseSolver.SolveSteady(t, nil, nil)
	if err != nil {
		return nil, err
	}
	vals := sensor.Read(f.sensors, res, sensor.Noise{}, nil)
	f.baseCache[t] = vals
	return vals, nil
}

// Junctions returns the node indices labeling the output columns.
func (f *Factory) Junctions() []int {
	return append([]int(nil), f.junctions...)
}

// SensorCount returns the feature dimension.
func (f *Factory) SensorCount() int { return len(f.sensors) }

// BaseTime returns the configured leak-onset clock time within the
// demand-pattern day.
func (f *Factory) BaseTime() time.Duration { return f.cfg.BaseTime }

// BaselineReadings returns the noise-free leak-free sensor readings at
// clock time t, solving at most once per distinct t (the result is
// cached). The returned slice is shared — treat it as read-only.
func (f *Factory) BaselineReadings(t time.Duration) ([]float64, error) {
	return f.baselineAt(t)
}

// JunctionColumn maps a node index to its label column (-1 if the node is
// not a junction).
func (f *Factory) JunctionColumn(nodeIdx int) int {
	if col, ok := f.jIndex[nodeIdx]; ok {
		return col
	}
	return -1
}

// FromScenario builds one sample for a specific scenario at the factory's
// configured elapsed-slot count. The rng adds sensor noise (nil for
// noise-free features).
func (f *Factory) FromScenario(sc leak.Scenario, rng *rand.Rand) (Sample, error) {
	return f.FromScenarioAt(sc, f.cfg.ElapsedSlots, rng)
}

// FromScenarioAt builds one sample with an explicit elapsed-slot count n —
// the post-leak reading is taken at e.t + n·Step. Used by online
// evaluation to model observations arriving later than the training
// configuration.
//
// This is the documented slow path: it constructs a throwaway
// hydraulic.Solver on every call. Code that builds many samples (dataset
// generation, Phase-II evaluation sweeps) should open a Session once and
// call Session.FromScenarioAt instead, amortizing solver construction
// across scenarios.
func (f *Factory) FromScenarioAt(sc leak.Scenario, elapsedSlots int, rng *rand.Rand) (Sample, error) {
	sess, err := f.NewSession()
	if err != nil {
		return Sample{}, err
	}
	return sess.FromScenarioAt(sc, elapsedSlots, rng)
}

// Session carries a dedicated hydraulic solver for repeated sample
// construction, so hot loops pay for solver construction once instead of
// once per scenario. The underlying factory (junction geometry, baseline
// cache) is shared and safe to use from many sessions concurrently; a
// Session itself is NOT safe for concurrent use — open one per goroutine.
//
// Solves are cold-started from fixed initial guesses, so a reused session
// produces bit-identical samples to a fresh solver per call, whether a
// scenario is solved alone or in a block (SolveBlock).
type Session struct {
	f      *Factory
	solver *hydraulic.Solver
	used   bool // a sample was already built — later builds are reuse hits

	// Reused per-sample buffers: the post-leak and baseline readings and
	// the emitters of the scalar solve and of each block lane. lane holds
	// the converged lane being read, so that handing it to the sensors as
	// a sensor.Snapshot does not allocate.
	after, before []float64
	emit          []hydraulic.Emitter
	lanes         [hydraulic.Lanes][]hydraulic.Emitter
	lane          hydraulic.LaneState

	// The last SolveBlock: its elapsed-slot count, which lanes converged,
	// and each live lane's share of its solve time.
	blockSlots int
	blockOK    [hydraulic.Lanes]bool
	blockShare time.Duration
}

// NewSession opens a sample-building session with its own solver.
func (f *Factory) NewSession() (*Session, error) {
	solver, err := hydraulic.NewSolver(f.net, f.cfg.Solver)
	if err != nil {
		return nil, fmt.Errorf("dataset: session solver: %w", err)
	}
	f.met.sessionsOpened.Inc()
	n := len(f.sensors)
	return &Session{f: f, solver: solver, after: make([]float64, n), before: make([]float64, n)}, nil
}

// FromScenario builds one sample at the factory's configured elapsed-slot
// count, reusing the session's solver.
func (s *Session) FromScenario(sc leak.Scenario, rng *rand.Rand) (Sample, error) {
	return s.FromScenarioAt(sc, s.f.cfg.ElapsedSlots, rng)
}

// FromScenarioAt builds one sample with an explicit elapsed-slot count,
// reusing the session's solver.
func (s *Session) FromScenarioAt(sc leak.Scenario, elapsedSlots int, rng *rand.Rand) (Sample, error) {
	s.countUse()
	var start time.Time
	if s.f.met.sampleSeconds != nil {
		start = time.Now()
	}
	features := make([]float64, len(s.f.sensors))
	stats, err := s.solveAndFinish(sc, s.f.slots(elapsedSlots), rng, features)
	if err != nil {
		return Sample{}, err
	}
	if s.f.met.sampleSeconds != nil {
		s.f.met.sampleSeconds.ObserveDuration(time.Since(start))
	}
	return Sample{
		Features:   features,
		Labels:     s.f.labelsInto(make([]int, len(s.f.junctions)), sc),
		Scenario:   sc,
		Retries:    stats.Retries,
		RetrySteps: stats.Steps,
	}, nil
}

// SolveBlock runs the leak solves of up to hydraulic.Lanes scenarios at
// one elapsed-slot count (≤ 0 means the factory's) as one four-lane
// solve (hydraulic.Solver.SolveSteadyFour). BlockSample then builds each
// scenario's features, in scenario order. With fault injection enabled
// nothing is solved here: the injector's hooks are per scenario, so
// every BlockSample takes the scalar path.
func (s *Session) SolveBlock(scs []leak.Scenario, elapsedSlots int) {
	s.blockSlots = s.f.slots(elapsedSlots)
	s.blockOK = [hydraulic.Lanes]bool{}
	s.blockShare = 0
	if s.f.inj.Enabled() {
		return
	}
	var start time.Time
	if s.f.met.sampleSeconds != nil {
		start = time.Now()
	}
	for l, sc := range scs {
		s.lanes[l] = sc.AppendEmitters(s.lanes[l][:0])
	}
	s.blockOK = s.solver.SolveSteadyFour(s.f.readTime(s.blockSlots), &s.lanes, len(scs))
	if s.f.met.sampleSeconds != nil {
		s.blockShare = time.Since(start) / time.Duration(len(scs))
	}
}

// BlockSample builds the features of scenario sc, lane l of the last
// SolveBlock, into features (one per sensor), drawing its noise from
// rng. A lane whose block solve failed is solved again on the scalar
// path with the retry ladder, which repeats the block's first attempt bit
// for bit, so the sample, its retries and its error are the ones
// FromScenarioAt gives. The sample-latency histogram records the lane's
// share of the block solve plus its own steps.
func (s *Session) BlockSample(l int, sc leak.Scenario, rng *rand.Rand, features []float64) (hydraulic.RetryStats, error) {
	s.countUse()
	var start time.Time
	if s.f.met.sampleSeconds != nil {
		start = time.Now()
	}
	var stats hydraulic.RetryStats
	var err error
	if s.blockOK[l] {
		s.lane = s.solver.Lane(l)
		err = s.finish(&s.lane, s.f.readTime(s.blockSlots), rng, nil, features)
	} else {
		stats, err = s.solveAndFinish(sc, s.blockSlots, rng, features)
	}
	if err == nil && s.f.met.sampleSeconds != nil {
		s.f.met.sampleSeconds.ObserveDuration(s.blockShare + time.Since(start))
	}
	return stats, err
}

func (s *Session) countUse() {
	if s.used {
		s.f.met.sessionReuse.Inc()
	}
	s.used = true
}

// slots resolves an elapsed-slot count: ≤ 0 means the configured one.
func (f *Factory) slots(elapsedSlots int) int {
	if elapsedSlots <= 0 {
		return f.cfg.ElapsedSlots
	}
	return elapsedSlots
}

// readTime is the post-leak reading instant e.t + n·Step.
func (f *Factory) readTime(elapsedSlots int) time.Duration {
	return f.cfg.BaseTime + time.Duration(elapsedSlots)*f.cfg.Step
}

// labelsInto writes sc's per-junction ground truth into dst (one entry
// per junction column) and returns it.
func (f *Factory) labelsInto(dst []int, sc leak.Scenario) []int {
	clear(dst)
	for _, e := range sc.Events {
		if col, ok := f.jIndex[e.Node]; ok {
			dst[col] = 1
		}
	}
	return dst
}

// solveAndFinish is the scalar sample path: the leak solve with the retry
// ladder (and, when enabled, the scenario's fault injection), then
// finish.
func (s *Session) solveAndFinish(sc leak.Scenario, elapsedSlots int, rng *rand.Rand, features []float64) (hydraulic.RetryStats, error) {
	f := s.f
	// Fault draws come from a dedicated stream seeded by one draw from the
	// scenario rng, so the injection schedule is per-scenario deterministic
	// and — with faults disabled — the noise stream is exactly the
	// historical one (no draw happens at all).
	var faultRng *rand.Rand
	if f.inj.Enabled() && rng != nil {
		faultRng = rand.New(rand.NewSource(rng.Int63()))
		s.solver.SetFailureHook(f.inj.SolveHook(faultRng))
		defer s.solver.SetFailureHook(nil)
	}
	readTime := f.readTime(elapsedSlots)
	s.emit = sc.AppendEmitters(s.emit[:0])
	res, stats, err := s.solver.SolveSteadyRetry(readTime, s.emit, nil, f.cfg.Retry)
	f.met.retries.Add(int64(stats.Retries))
	if err != nil {
		return stats, &ScenarioError{Retries: stats.Retries, Err: err, Steps: stats.Steps}
	}
	return stats, s.finish(res, readTime, rng, faultRng, features)
}

// finish turns a solved leak state into a sample's features: the noisy
// post-leak reading, the noisy leak-free baseline at the same clock time,
// sensor faults (faultRng nil: none), the delta and the non-finite guard.
func (s *Session) finish(snap sensor.Snapshot, readTime time.Duration, rng, faultRng *rand.Rand, features []float64) error {
	f := s.f
	sensor.ReadInto(s.after, f.sensors, snap, f.cfg.Noise, rng)
	baseTruth, err := f.baselineAt(readTime)
	if err != nil {
		return fmt.Errorf("dataset: baseline solve: %w", err)
	}
	// The independent pre-leak reading: fresh measurement noise on the
	// noise-free baseline, through the same per-kind model Read uses.
	copy(s.before, baseTruth)
	sensor.ApplyNoise(f.sensors, s.before, f.cfg.Noise, rng)
	// Sensor faults perturb the post-leak reading: a stuck sensor reports
	// the stale pre-leak value (zero delta), dropout and NaN glitches
	// become non-finite readings sanitized below.
	f.inj.PerturbReadings(s.after, s.before, faultRng)
	sensor.DeltaInto(features, s.before, s.after)
	// Degraded-input guard: a non-finite reading must become a neutral
	// feature, not silently poison training or inference downstream. (NaN
	// propagates through every classifier dot product unnoticed.)
	bad := 0
	for i, v := range features {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			features[i] = 0
			bad++
		}
	}
	f.met.badFeatures.Add(int64(bad))
	f.met.samples.Inc()
	return nil
}

// RetryTrace synthesizes a trace snapshot replaying a scenario's solver
// retry ladder: one solver_retry event per re-attempt carrying the
// relaxation factor and a warm/cold + injected/real detail, plus the
// terminal error when the ladder was exhausted. Returns nil when the
// scenario never retried (no trace to tell).
func RetryTrace(job string, steps []hydraulic.RetryStep, err error) *telemetry.TraceSnapshot {
	if len(steps) == 0 && err == nil {
		return nil
	}
	tr := telemetry.NewTrace(telemetry.TraceID{})
	tr.SetJob(job)
	for _, st := range steps {
		detail := "cold"
		if st.Warm {
			detail = "warm"
		}
		if st.Injected {
			detail += ",injected"
		}
		tr.EventDetail(telemetry.StageSolverRetry, st.Relaxation, detail)
	}
	tr.Fail(err)
	tr.Event(telemetry.StageDone)
	return tr.Snapshot()
}

// Generate draws count random scenarios and builds their samples in
// parallel. The result is deterministic for a given rng seed regardless of
// worker scheduling: scenarios and per-sample noise seeds are drawn
// sequentially up front.
//
// A scenario whose hydraulic solve still fails after the configured
// retries is skipped and recorded in Dataset.Skipped (in generation
// order) instead of aborting the run. Only non-convergence is
// skippable; any other error (a programming or data defect) aborts.
// Generate fails outright if every scenario is skipped.
func (f *Factory) Generate(count int, rng *rand.Rand) (*Dataset, error) {
	return f.GenerateContext(context.Background(), count, rng)
}

// GenerateContext is Generate with cancellation: ctx is observed between
// blocks of hydraulic.Lanes scenarios, so a cancelled call returns within
// roughly one block's solve latency. On cancellation it returns the
// partial dataset — every sample of the blocks dispatched before the
// cancel, in scenario order — together with ctx.Err(), so long-running
// generation can be interrupted without losing completed work. An
// uncancelled call is bit-identical to Generate for the same rng seed.
func (f *Factory) GenerateContext(ctx context.Context, count int, rng *rand.Rand) (*Dataset, error) {
	if count <= 0 {
		return nil, fmt.Errorf("dataset: non-positive sample count %d", count)
	}
	scenarios, seeds, err := f.drawScenarios(count, rng)
	if err != nil {
		return nil, err
	}
	sessions, err := f.newSessions(par.Workers(0, blocks(count)))
	if err != nil {
		return nil, err
	}
	sw := f.newSweep(count, true)
	dispatched := sw.run(ctx, sessions, scenarios, seeds)

	// Reduce in scenario order so both the aborting error and the skip
	// report are deterministic for any worker scheduling. Kept samples
	// are filtered in place; their features and labels stay in the
	// sweep's two arrays, one cap-limited row each.
	samples := sw.samples
	kept := samples[:0]
	var skipped []SkippedScenario
	for i, err := range sw.errs[:dispatched] {
		if err == nil {
			kept = append(kept, samples[i])
			continue
		}
		if !errors.Is(err, hydraulic.ErrNotConverged) {
			return nil, err
		}
		skipped = append(skipped, SkipRecord(i, scenarios[i], err))
	}
	f.met.skipped.Add(int64(len(skipped)))
	clear(samples[len(kept):])
	if ctxErr := ctx.Err(); ctxErr != nil {
		return &Dataset{Samples: kept, Junctions: f.Junctions(), Skipped: skipped}, ctxErr
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("dataset: all %d scenarios failed (first: %w)", count, skipped[0].Err)
	}
	return &Dataset{Samples: kept, Junctions: f.Junctions(), Skipped: skipped}, nil
}

// SkipRecord builds the skip record of scenario index, whose solve
// failed with err: the retry count and ladder come from the
// ScenarioError err wraps (zero and nil for any other error).
func SkipRecord(index int, sc leak.Scenario, err error) SkippedScenario {
	rec := SkippedScenario{Index: index, Scenario: sc, Err: err}
	var steps []hydraulic.RetryStep
	var se *ScenarioError
	if errors.As(err, &se) {
		rec.Retries, steps = se.Retries, se.Steps
	}
	rec.Trace = RetryTrace(fmt.Sprintf("scenario-%d", index), steps, err)
	return rec
}

// drawScenarios draws count scenarios and then one noise seed per
// scenario from rng, serially, so what each scenario builds cannot
// depend on worker scheduling.
func (f *Factory) drawScenarios(count int, rng *rand.Rand) ([]leak.Scenario, []int64, error) {
	gen, err := leak.NewGenerator(f.net, f.cfg.Leaks, rng)
	if err != nil {
		return nil, nil, err
	}
	scenarios := gen.Batch(count)
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	return scenarios, seeds, nil
}

// newSessions opens one session per worker up front, so a
// solver-construction failure surfaces as one deterministic error
// instead of depending on which items the broken worker would drain.
func (f *Factory) newSessions(workers int) ([]*Session, error) {
	sessions := make([]*Session, workers)
	for w := range sessions {
		sess, err := f.NewSession()
		if err != nil {
			return nil, err
		}
		sessions[w] = sess
	}
	return sessions, nil
}

// blocks is the number of hydraulic.Lanes-scenario blocks n scenarios
// fill, the last one padded.
func blocks(n int) int { return (n + hydraulic.Lanes - 1) / hydraulic.Lanes }

// sweep holds one scenario sweep's results: scenario i's sample, with its
// features in row i of one flat array (and its labels in row i of
// another, when the sweep builds them), and its error. A corpus reuses
// one sweep for every shard.
type sweep struct {
	f        *Factory
	samples  []Sample
	errs     []error
	features []float64
	labels   []int // nil: labels are not built
}

func (f *Factory) newSweep(n int, labels bool) *sweep {
	sw := &sweep{
		f:        f,
		samples:  make([]Sample, n),
		errs:     make([]error, n),
		features: make([]float64, n*len(f.sensors)),
	}
	if labels {
		sw.labels = make([]int, n*len(f.junctions))
	}
	return sw
}

// run builds the samples of scenarios (at most the sweep's capacity),
// scenario i from its own noise stream seeded with seeds[i], over one
// worker per session. Workers take blocks of hydraulic.Lanes scenarios,
// solve each block together (Session.SolveBlock) and then build its
// samples in scenario order, each on the worker's one rand.Rand re-seeded
// with Seed(seeds[i]) — the stream rand.New(rand.NewSource(seeds[i]))
// gives. It returns the dispatched prefix: on cancellation, whole blocks.
func (sw *sweep) run(ctx context.Context, sessions []*Session, scenarios []leak.Scenario, seeds []int64) (dispatched int) {
	n := len(scenarios)
	nf, nj := len(sw.f.sensors), len(sw.f.junctions)
	work := make([]func(int), len(sessions))
	for w, sess := range sessions {
		rng := rand.New(randsrc.New(1))
		work[w] = func(b int) {
			lo, hi := b*hydraulic.Lanes, min((b+1)*hydraulic.Lanes, n)
			sess.SolveBlock(scenarios[lo:hi], 0)
			for i := lo; i < hi; i++ {
				rng.Seed(seeds[i])
				feat := sw.features[i*nf : (i+1)*nf : (i+1)*nf]
				stats, err := sess.BlockSample(i-lo, scenarios[i], rng, feat)
				sw.errs[i] = err
				if err != nil {
					sw.samples[i] = Sample{}
					continue
				}
				sw.samples[i] = Sample{
					Features:   feat,
					Scenario:   scenarios[i],
					Retries:    stats.Retries,
					RetrySteps: stats.Steps,
				}
				if sw.labels != nil {
					sw.samples[i].Labels = sw.f.labelsInto(sw.labels[i*nj:(i+1)*nj:(i+1)*nj], scenarios[i])
				}
			}
		}
	}
	return min(par.Each(ctx, blocks(n), work)*hydraulic.Lanes, n)
}
