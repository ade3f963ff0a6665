package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/par"
	"github.com/aquascale/aquascale/internal/randsrc"
	"github.com/aquascale/aquascale/internal/social"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// evalMetrics are the Phase-II engine's telemetry handles, bound per
// EvaluateParallel call (so they follow Enable/Disable); all nil no-ops
// when telemetry is off.
type evalMetrics struct {
	scenarios      *telemetry.Counter   // scenarios evaluated
	retries        *telemetry.Counter   // solver re-attempts across scenarios
	skipped        *telemetry.Counter   // scenarios dropped after retry exhaustion
	observeSeconds *telemetry.Histogram // per-scenario observation latency; a block's shared leak solve counts 1/lanes to each of its scenarios
	workerBusy     *telemetry.Gauge     // summed worker busy seconds
	rate           *telemetry.Gauge     // scenarios/sec of the last run
}

func bindEvalMetrics() evalMetrics {
	reg := telemetry.Default()
	return evalMetrics{
		scenarios:      reg.Counter("core_eval_scenarios_total"),
		retries:        reg.Counter("core_eval_retries_total"),
		skipped:        reg.Counter("core_eval_skipped_total"),
		observeSeconds: reg.Histogram("core_observe_seconds", telemetry.EvalLatencyBuckets()),
		workerBusy:     reg.Gauge("core_eval_worker_busy_seconds_total"),
		rate:           reg.Gauge("core_eval_scenarios_per_second"),
	}
}

// observer bundles the per-worker state of the Phase-II evaluation engine:
// a dataset session (one reused hydraulic solver), one reused tweet
// generator, and the worker's buffers — its rng, re-seeded per scenario,
// the features, the prediction, the truth and leak masks and the block of
// scenarios it solves together. Construction is the expensive part
// Observe pays per call; an observer pays it once. Not safe for
// concurrent use — the evaluator builds one per worker.
type observer struct {
	session *dataset.Session
	reports *social.Generator

	rng      *rand.Rand
	features []float64
	pred     fusion.Prediction
	truth    []int  // per node
	leaking  []bool // per node
	detected []bool // per node
	block    [hydraulic.Lanes]leak.Scenario
}

// newObserver builds the reusable per-worker observation state.
func (s *System) newObserver() (*observer, error) {
	sess, err := s.factory.NewSession()
	if err != nil {
		return nil, err
	}
	// The generator's own rng is never used: every draw goes through
	// ReportsWith with an explicit per-scenario stream. NewGenerator only
	// needs a non-nil rng to satisfy its contract.
	gen, err := social.NewGenerator(s.net, s.social, rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	nodes := len(s.net.Nodes)
	return &observer{
		session:  sess,
		reports:  gen,
		rng:      rand.New(randsrc.New(1)),
		features: make([]float64, s.factory.SensorCount()),
		pred:     fusion.Prediction{Proba: make([]float64, nodes)},
		truth:    make([]int, nodes),
		leaking:  make([]bool, nodes),
		detected: make([]bool, nodes),
	}, nil
}

func (opt ObserveOptions) withDefaults() ObserveOptions {
	if opt.ElapsedSlots <= 0 {
		opt.ElapsedSlots = 1
	}
	if opt.GammaM <= 0 {
		opt.GammaM = 30
	}
	return opt
}

// observeWith simulates one observation using an observer's reused solver
// and tweet generator, returning the solver retries the sample consumed.
// All randomness is drawn from rng in a fixed order (sensor noise, freeze
// detection, reports), so the observation depends only on (scenario,
// options, rng state) — never on which worker runs it.
func (s *System) observeWith(o *observer, sc ColdScenario, opt ObserveOptions, rng *rand.Rand) (Observation, int, error) {
	opt = opt.withDefaults()
	sample, err := o.session.FromScenarioAt(sc.Scenario, opt.ElapsedSlots, rng)
	if err != nil {
		return Observation{}, 0, err
	}
	obs := Observation{Features: sample.Features}
	if opt.Sources.Weather {
		obs.Frozen = make([]bool, len(sc.Frozen))
	}
	if err := s.addEvidence(o, &obs, sc, opt, rng); err != nil {
		return Observation{}, sample.Retries, err
	}
	return obs, sample.Retries, nil
}

// addEvidence draws the weather and human evidence of one observation
// from rng after its sensor features: the detected-frozen mask into
// obs.Frozen (a zeroed mask, when weather is on) and the tweet cliques.
func (s *System) addEvidence(o *observer, obs *Observation, sc ColdScenario, opt ObserveOptions, rng *rand.Rand) error {
	if opt.Sources.Weather {
		for _, e := range sc.Events {
			o.leaking[e.Node] = true
		}
		for v, frozen := range sc.Frozen {
			if !frozen {
				continue
			}
			if o.leaking[v] {
				obs.Frozen[v] = rng.Float64() < freezeDetectRate
			} else {
				obs.Frozen[v] = rng.Float64() < freezeFalseFireRate
			}
		}
		for _, e := range sc.Events {
			o.leaking[e.Node] = false
		}
	}
	if opt.Sources.Human {
		reports, err := o.reports.ReportsWith(rng, sc.LeakNodes(), opt.ElapsedSlots)
		if err != nil {
			return err
		}
		pe := s.social.FalsePositiveRate
		if pe <= 0 {
			pe = 0.3
		}
		obs.Cliques = social.BuildCliques(s.net, reports, opt.GammaM, pe)
	}
	return nil
}

// solveBlock solves the leak states of block, at most hydraulic.Lanes
// scenarios, together and returns each scenario's share of that time
// (zero when the latency histogram is off).
func (s *System) solveBlock(o *observer, block []ColdScenario, opt ObserveOptions, met evalMetrics) time.Duration {
	var t0 time.Time
	if met.observeSeconds != nil {
		t0 = time.Now()
	}
	for l := range block {
		o.block[l] = block[l].Scenario
	}
	o.session.SolveBlock(o.block[:len(block)], opt.ElapsedSlots)
	if met.observeSeconds == nil {
		return 0
	}
	return time.Since(t0) / time.Duration(len(block))
}

// evaluateLane runs the rest of the Phase-II pipeline on scenario sc,
// lane l of the observer's last block, on its own stream — observation,
// fusion and its Hamming score against ground truth, in the observer's
// buffers — and returns (Hamming score, human-added count, solver
// retries consumed). The observation-latency histogram records the
// lane's share of the block solve plus its own observation.
func (s *System) evaluateLane(o *observer, l int, sc ColdScenario, seed int64, opt ObserveOptions, met evalMetrics, share time.Duration) (float64, int, int, error) {
	var t0 time.Time
	if met.observeSeconds != nil {
		t0 = time.Now()
	}
	rng := o.rng
	rng.Seed(seed)
	stats, err := o.session.BlockSample(l, sc.Scenario, rng, o.features)
	obs := Observation{Features: o.features}
	if err == nil {
		if opt.Sources.Weather {
			obs.Frozen = o.detected[:len(sc.Frozen)]
			clear(obs.Frozen)
		}
		err = s.addEvidence(o, &obs, sc, opt, rng)
	}
	if met.observeSeconds != nil {
		met.observeSeconds.ObserveDuration(share + time.Since(t0))
	}
	if err != nil {
		return 0, 0, stats.Retries, err
	}
	added, err := s.LocalizeInto(&o.pred, obs)
	if err != nil {
		return 0, 0, stats.Retries, err
	}
	for _, e := range sc.Events {
		if e.Node >= 0 && e.Node < len(o.truth) {
			o.truth[e.Node] = 1
		}
	}
	score := mlearn.HammingScoreProba(o.pred.Proba, o.truth)
	for _, e := range sc.Events {
		if e.Node >= 0 && e.Node < len(o.truth) {
			o.truth[e.Node] = 0
		}
	}
	return score, len(added), stats.Retries, nil
}

// Evaluate runs Phase II over count cold scenarios and returns the mean
// Hamming score against ground truth. Scenarios are evaluated in parallel
// across runtime.NumCPU() workers; see EvaluateParallel for the
// determinism guarantee and worker-count control.
func (s *System) Evaluate(count int, leakCfg leak.GeneratorConfig, opt ObserveOptions, rng *rand.Rand) (EvalResult, error) {
	return s.EvaluateParallel(count, leakCfg, opt, 0, rng)
}

// EvaluateParallel is Evaluate with an explicit worker count: 0 means
// runtime.NumCPU(), 1 forces the serial path.
//
// The result is bit-identical for every worker count and GOMAXPROCS
// setting at a fixed rng seed — the same guarantee dataset.Factory.Generate
// documents, and by the same construction: scenarios and one noise seed
// per scenario are drawn sequentially from the caller's rng up front;
// workers take blocks of hydraulic.Lanes scenarios, solve each block's
// leak states together (bit-identical to solving them one by one), then
// evaluate each scenario against its own stream — the worker's rand.Rand
// re-seeded with the scenario's seed — with the worker's reused solver,
// tweet generator and buffers; the per-scenario scores are reduced in
// scenario order.
func (s *System) EvaluateParallel(count int, leakCfg leak.GeneratorConfig, opt ObserveOptions, workers int, rng *rand.Rand) (EvalResult, error) {
	return s.EvaluateParallelContext(context.Background(), count, leakCfg, opt, workers, rng)
}

// EvaluateParallelContext is EvaluateParallel with cancellation: ctx is
// observed between blocks of hydraulic.Lanes scenarios, so a cancelled
// call returns within roughly one block's latency. On cancellation it
// returns the partial result — every scenario of the blocks dispatched
// before the cancel, a prefix of whole blocks, with Evaluated and
// MeanHamming accounting for exactly those — together with ctx.Err().
// An uncancelled call is bit-identical to EvaluateParallel.
func (s *System) EvaluateParallelContext(ctx context.Context, count int, leakCfg leak.GeneratorConfig, opt ObserveOptions, workers int, rng *rand.Rand) (EvalResult, error) {
	if s.Profile() == nil {
		return EvalResult{}, fmt.Errorf("core: system not trained")
	}
	if count <= 0 {
		return EvalResult{}, fmt.Errorf("core: non-positive scenario count")
	}
	if rng == nil {
		return EvalResult{}, fmt.Errorf("core: nil rng")
	}
	met := bindEvalMetrics()
	span := telemetry.Default().StartSpan("core_evaluate_parallel")
	wallStart := time.Now()

	// Serial phase: pre-draw every random decision that spans scenarios so
	// the outcome cannot depend on worker scheduling. The frozen masks
	// share one array.
	opt = opt.withDefaults()
	draw, err := s.newColdDraw(leakCfg)
	if err != nil {
		return EvalResult{}, err
	}
	nodes := len(s.net.Nodes)
	masks := make([]bool, count*nodes)
	scenarios := make([]ColdScenario, count)
	for i := range scenarios {
		if err := ctx.Err(); err != nil {
			return EvalResult{Scenarios: count}, err
		}
		scenarios[i] = draw.next(rng, masks[i*nodes:(i+1)*nodes:(i+1)*nodes])
	}
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	// Per-worker observers are built before spawning so a solver or
	// generator construction failure is one deterministic error.
	blocks := (count + hydraulic.Lanes - 1) / hydraulic.Lanes
	observers := make([]*observer, par.Workers(workers, blocks))
	for w := range observers {
		o, err := s.newObserver()
		if err != nil {
			return EvalResult{}, err
		}
		observers[w] = o
	}

	scores := make([]float64, count)
	added := make([]int, count)
	retries := make([]int, count)
	errs := make([]error, count)
	work := make([]func(int), len(observers))
	for w, o := range observers {
		work[w] = func(b int) {
			var t0 time.Time
			if met.workerBusy != nil {
				t0 = time.Now()
			}
			lo, hi := b*hydraulic.Lanes, min((b+1)*hydraulic.Lanes, count)
			share := s.solveBlock(o, scenarios[lo:hi], opt, met)
			for i := lo; i < hi; i++ {
				scores[i], added[i], retries[i], errs[i] = s.evaluateLane(o, i-lo, scenarios[i], seeds[i], opt, met, share)
				met.scenarios.Inc()
			}
			if met.workerBusy != nil {
				met.workerBusy.Add(time.Since(t0).Seconds())
			}
		}
	}
	dispatched := min(par.Each(ctx, blocks, work)*hydraulic.Lanes, count)

	// Reduce in scenario order so errors, the skip report, and the float
	// sum are all order-stable regardless of worker scheduling. A scenario
	// whose solve still fails after retries is skipped and recorded; any
	// other error aborts.
	total, humanAdded, totalRetries := 0.0, 0, 0
	var skipped []dataset.SkippedScenario
	for i, err := range errs[:dispatched] {
		if err == nil {
			total += scores[i]
			humanAdded += added[i]
			totalRetries += retries[i]
			continue
		}
		if !errors.Is(err, hydraulic.ErrNotConverged) {
			return EvalResult{}, err
		}
		rec := dataset.SkipRecord(i, scenarios[i].Scenario, err)
		totalRetries += rec.Retries
		skipped = append(skipped, rec)
	}
	met.retries.Add(int64(totalRetries))
	met.skipped.Add(int64(len(skipped)))
	evaluated := dispatched - len(skipped)
	mean := 0.0
	if evaluated > 0 {
		mean = total / float64(evaluated)
	}
	res := EvalResult{
		MeanHamming: mean,
		Scenarios:   count,
		Evaluated:   evaluated,
		HumanAdded:  humanAdded,
		Retries:     totalRetries,
		Skipped:     skipped,
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		span.End()
		return res, ctxErr
	}
	if evaluated == 0 {
		return EvalResult{}, fmt.Errorf("core: all %d scenarios failed (first: %w)", count, skipped[0].Err)
	}
	if elapsed := time.Since(wallStart); elapsed > 0 {
		met.rate.Set(float64(count) / elapsed.Seconds())
	}
	span.End()
	return res, nil
}
