package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
)

// multiLeak is the paper's U(1,5) concurrent-failure scenario family,
// used by every workload.
var multiLeak = leak.GeneratorConfig{MinEvents: 1, MaxEvents: 5}

// placementSeed fixes every workload's sensor placement: the deployment
// is part of the system under test, not of the seeded inputs, so runs
// with different seeds measure the same district.
const placementSeed = 5

// deployment is one district as the daemon and the trainers build it:
// network, k-medoids sensor placement from a leak-free baseline EPS run,
// data factory and (untrained) system.
type deployment struct {
	net     *network.Network
	sensors []sensor.Sensor
	factory *dataset.Factory
	sys     *core.System
}

func buildDeployment(build func() *network.Network, iotPct float64) (*deployment, error) {
	net := build()
	baseline, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		return nil, fmt.Errorf("baseline EPS for %s: %w", net.Name, err)
	}
	placer, err := sensor.NewPlacer(net, baseline)
	if err != nil {
		return nil, err
	}
	sensors, err := placer.KMedoids(placer.CountForPercent(iotPct), rand.New(rand.NewSource(placementSeed)))
	if err != nil {
		return nil, err
	}
	factory, err := dataset.NewFactory(net, sensors, dataset.Config{Noise: sensor.DefaultNoise, Leaks: multiLeak})
	if err != nil {
		return nil, err
	}
	return &deployment{net: net, sensors: sensors, factory: factory,
		sys: core.NewSystem(factory, net, core.SystemConfig{})}, nil
}

// repeatSetup runs setup n times and returns the median wall time in
// seconds and the last run's value. Every earlier value is passed to
// discard so resources it holds are released. Callers pick n so the
// repetitions span a second or more: the host this was sized on switches
// between fast and slow phases about that often.
func repeatSetup[T any](n int, setup func() (T, error), discard func(T)) (float64, T, error) {
	var last T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return 0, last, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 && discard != nil {
			discard(v)
		}
		last = v
	}
	return median(times), last, nil
}
