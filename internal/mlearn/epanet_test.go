package mlearn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
)

// dataCache memoizes generated datasets by name and sample count.
var dataCache sync.Map // string → *dataset.Dataset

// epanetData returns a deterministic EPA-NET multi-leak dataset of the
// given size: 60% IoT coverage placed by k-medoids (seed 5) over a
// leak-free 6 h baseline, U(1,5) concurrent leaks, default sensor noise
// and generation seed 11 — the profile-build deployment of the figure
// pipeline.
func epanetData(tb testing.TB, samples int) ([][]float64, [][]int) {
	return generatedData(tb, network.BuildEPANet, 60, samples)
}

// gridData returns the corpus-grid benchmark's shape as an in-memory
// dataset, deployed and generated like epanetData: a 32×32 grid network
// (1026 nodes, 1024 junction columns) at 3% IoT coverage (63 sensors),
// 2000 samples.
func gridData(tb testing.TB) ([][]float64, [][]int) {
	return generatedData(tb, func() *network.Network {
		return network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32})
	}, 3, 2000)
}

// generatedData places iotPct% IoT sensors by k-medoids (seed 5) over a
// leak-free 6 h baseline of build's network and generates samples U(1,5)
// multi-leak scenarios at default sensor noise with seed 11.
func generatedData(tb testing.TB, build func() *network.Network, iotPct float64, samples int) ([][]float64, [][]int) {
	tb.Helper()
	net := build()
	key := fmt.Sprintf("%s/%g/%d", net.Name, iotPct, samples)
	if ds, ok := dataCache.Load(key); ok {
		return ds.(*dataset.Dataset).X(), ds.(*dataset.Dataset).Y()
	}
	baseline, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		tb.Fatalf("baseline EPS: %v", err)
	}
	placer, err := sensor.NewPlacer(net, baseline)
	if err != nil {
		tb.Fatal(err)
	}
	sensors, err := placer.KMedoids(placer.CountForPercent(iotPct), rand.New(rand.NewSource(5)))
	if err != nil {
		tb.Fatal(err)
	}
	factory, err := dataset.NewFactory(net, sensors, dataset.Config{
		Noise: sensor.DefaultNoise,
		Leaks: leak.GeneratorConfig{MinEvents: 1, MaxEvents: 5},
	})
	if err != nil {
		tb.Fatal(err)
	}
	ds, err := factory.Generate(samples, rand.New(rand.NewSource(11)))
	if err != nil {
		tb.Fatalf("Generate: %v", err)
	}
	dataCache.Store(key, ds)
	return ds.X(), ds.Y()
}

// namedFactory returns the registry factory for name. The name is
// checked here, on the test goroutine, because the factory itself runs
// on fitting workers.
func namedFactory(tb testing.TB, name string) Factory {
	tb.Helper()
	if _, err := NewByName(name, 0); err != nil {
		tb.Fatal(err)
	}
	return func(seed int64) Classifier {
		c, _ := NewByName(name, seed) // checked above
		return c
	}
}
