package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
)

// gridSystem is the corpus benchmark's deployment at test scale: the
// 32×32 grid at 3% IoT with k-medoids placement, trained on a few
// samples with the linear technique.
func gridSystem(t testing.TB) *System {
	t.Helper()
	net := network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32})
	base, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	placer, err := sensor.NewPlacer(net, base)
	if err != nil {
		t.Fatal(err)
	}
	sensors, err := placer.KMedoids(placer.CountForPercent(3), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	factory, err := dataset.NewFactory(net, sensors, dataset.Config{Noise: sensor.DefaultNoise})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(factory, net, SystemConfig{})
	if err := sys.Train(40, ProfileConfig{Technique: "linear", Seed: 5}, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	return sys
}

// allocatedBytes returns the bytes fn allocates.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSweepAllocationBudget bounds what the scenario sweeps allocate per
// scenario on the grid deployment: EvaluateParallel builds nothing per
// scenario beyond its pre-drawn frozen mask and the tweet evidence, and
// Generate beyond the sample rows it returns. Both used to allocate a
// full hydraulic result, label vectors and a fresh rand.Rand per
// scenario (~114 KiB and ~61 KiB).
func TestSweepAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and trains a 1026-node deployment")
	}
	sys := gridSystem(t)
	const n = 200
	multi := leak.GeneratorConfig{MinEvents: 1, MaxEvents: 5}
	opt := ObserveOptions{Sources: Sources{Weather: true, Human: true}}
	eval := allocatedBytes(func() {
		if _, err := sys.EvaluateParallel(n, multi, opt, 1, rand.New(rand.NewSource(31))); err != nil {
			t.Fatal(err)
		}
	})
	gen := allocatedBytes(func() {
		if _, err := sys.Factory().Generate(n, rand.New(rand.NewSource(11))); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("EvaluateParallel %.1f KiB/scenario, Generate %.1f KiB/sample", float64(eval)/n/1024, float64(gen)/n/1024)
	if eval > n*12<<10 {
		t.Errorf("EvaluateParallel allocated %.1f KiB per scenario, budget 12", float64(eval)/n/1024)
	}
	if gen > n*24<<10 {
		t.Errorf("Generate allocated %.1f KiB per sample, budget 24", float64(gen)/n/1024)
	}
}
