package mlearn

import (
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

// epanetCache memoizes generated EPA-NET datasets by sample count.
var epanetCache sync.Map // int → *dataset.Dataset

// epanetData returns a deterministic EPA-NET multi-leak dataset of the
// given size: 60% IoT coverage placed by k-medoids (seed 5) over a
// leak-free 6 h baseline, U(1,5) concurrent leaks, default sensor noise
// and generation seed 11 — the profile-build deployment of the figure
// pipeline.
func epanetData(tb testing.TB, samples int) ([][]float64, [][]int) {
	tb.Helper()
	if ds, ok := epanetCache.Load(samples); ok {
		return ds.(*dataset.Dataset).X(), ds.(*dataset.Dataset).Y()
	}
	net := network.BuildEPANet()
	baseline, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		tb.Fatalf("baseline EPS: %v", err)
	}
	placer, err := sensor.NewPlacer(net, baseline)
	if err != nil {
		tb.Fatal(err)
	}
	sensors, err := placer.KMedoids(placer.CountForPercent(60), rand.New(rand.NewSource(5)))
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
	epanetCache.Store(samples, ds)
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
