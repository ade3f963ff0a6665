package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/par"
	"github.com/aquascale/aquascale/internal/sensor"
)

// testbed bundles a network with its sensor placer (built from a leak-free
// baseline EPS run, as sensor placement requires).
type testbed struct {
	net    *network.Network
	placer *sensor.Placer
}

func newTestbed(build func() *network.Network) (*testbed, error) {
	net := build()
	baseline, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{
		Duration: 6 * time.Hour,
		Step:     time.Hour,
	}, nil)
	if err != nil {
		return nil, fmt.Errorf("bench: baseline EPS for %s: %w", net.Name, err)
	}
	placer, err := sensor.NewPlacer(net, baseline)
	if err != nil {
		return nil, err
	}
	return &testbed{net: net, placer: placer}, nil
}

// sensorsAtPercent places k-medoids sensors at the given IoT deployment
// percentage.
func (tb *testbed) sensorsAtPercent(pct float64, seed int64) ([]sensor.Sensor, error) {
	count := tb.placer.CountForPercent(pct)
	return tb.placer.KMedoids(count, rand.New(rand.NewSource(seed)))
}

// factoryFor builds a data factory over the given sensors, threading the
// scale's robustness knobs (fault injection, retry budget) into
// the factory config. A zero-valued Scale robustness section reproduces
// the historical factory exactly.
func (tb *testbed) factoryFor(sensors []sensor.Sensor, leakCfg leak.GeneratorConfig, scale Scale) (*dataset.Factory, error) {
	return dataset.NewFactory(tb.net, sensors, dataset.Config{
		Noise:  sensor.DefaultNoise,
		Leaks:  leakCfg,
		Retry:  hydraulic.RetryPolicy{MaxRetries: scale.Retries},
		Faults: scale.Faults,
	})
}

// trainedSystem wires and trains a full AquaSCALE system.
func (tb *testbed) trainedSystem(sensors []sensor.Sensor, leakCfg leak.GeneratorConfig, scale Scale) (*core.System, error) {
	factory, err := tb.factoryFor(sensors, leakCfg, scale)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem(factory, tb.net, core.SystemConfig{})
	err = sys.Train(scale.TrainSamples,
		core.ProfileConfig{Technique: scale.Technique, Seed: scale.Seed + 77},
		rand.New(rand.NewSource(scale.Seed+11)))
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// evalProfile measures the profile-only (IoT data only, no fusion) mean
// Hamming score over fresh plain scenarios — the Fig 6/7 setting.
//
// Scenarios and one noise seed per scenario are pre-drawn from rng, then
// fanned out over workers (0 means runtime.NumCPU(), 1 forces serial),
// each worker reusing one dataset session; the score is identical for
// every worker count at a fixed seed.
func evalProfile(factory *dataset.Factory, profile *core.Profile, net *network.Network,
	leakCfg leak.GeneratorConfig, count, workers int, rng *rand.Rand) (float64, error) {
	gen, err := leak.NewGenerator(net, leakCfg, rng)
	if err != nil {
		return 0, err
	}
	scenarios := gen.Batch(count)
	seeds := make([]int64, count)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	sessions := make([]*dataset.Session, par.Workers(workers, count))
	for w := range sessions {
		sess, err := factory.NewSession()
		if err != nil {
			return 0, err
		}
		sessions[w] = sess
	}

	preds := make([][]int, count)
	truths := make([][]int, count)
	errs := make([]error, count)
	work := make([]func(int), len(sessions))
	for w, sess := range sessions {
		work[w] = func(i int) {
			sample, err := sess.FromScenario(scenarios[i], rand.New(rand.NewSource(seeds[i])))
			if err != nil {
				errs[i] = err
				return
			}
			preds[i], errs[i] = profile.Predict(sample.Features)
			truths[i] = scenarios[i].Labels(len(net.Nodes))
		}
	}
	par.Each(context.Background(), count, work)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return mlearn.MeanHammingScore(preds, truths), nil
}

// trainProfileOnly trains just a Phase-I profile for one technique over a
// pre-generated dataset (so Fig 6 can reuse one dataset across techniques).
func trainProfileOnly(ds *dataset.Dataset, nodeCount int, technique core.Technique, seed int64) (*core.Profile, error) {
	return core.TrainProfile(ds, nodeCount, core.ProfileConfig{Technique: technique, Seed: seed})
}

// epanetSingleLeak is the Fig 6/7a scenario family.
var epanetSingleLeak = leak.GeneratorConfig{MinEvents: 1, MaxEvents: 1}

// epanetMultiLeak is the paper's U(1,5) concurrent-failure family.
var epanetMultiLeak = leak.GeneratorConfig{MinEvents: 1, MaxEvents: 5}
