package core

import (
	"context"
	"errors"
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

// tinyBed caches one trained test-network system for the context and
// concurrency tests — built once per binary because the baseline EPS and
// training solves dominate the cost.
var tinyBed struct {
	once sync.Once
	err  error
	sys  *System
}

// tinySystem returns a shared trained system on the small test network.
// Tests that only read (Localize, Evaluate*) may share it; tests that
// need an untrained or mutated system must build their own.
func tinySystem() (*System, error) {
	tinyBed.once.Do(func() {
		net := network.BuildTestNet()
		base, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{Duration: 2 * time.Hour, Step: time.Hour}, nil)
		if err != nil {
			tinyBed.err = fmt.Errorf("baseline EPS: %w", err)
			return
		}
		placer, err := sensor.NewPlacer(net, base)
		if err != nil {
			tinyBed.err = err
			return
		}
		sensors, err := placer.KMedoids(5, rand.New(rand.NewSource(2)))
		if err != nil {
			tinyBed.err = err
			return
		}
		factory, err := dataset.NewFactory(net, sensors, dataset.Config{
			Noise: sensor.DefaultNoise,
			Leaks: leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2},
		})
		if err != nil {
			tinyBed.err = err
			return
		}
		sys := NewSystem(factory, net, SystemConfig{})
		if err := sys.Train(40, ProfileConfig{Technique: TechniqueLinear, Seed: 5},
			rand.New(rand.NewSource(3))); err != nil {
			tinyBed.err = fmt.Errorf("train: %w", err)
			return
		}
		tinyBed.sys = sys
	})
	return tinyBed.sys, tinyBed.err
}

func TestEvaluateParallelContextPreCancelled(t *testing.T) {
	sys, err := tinySystem()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sys.EvaluateParallelContext(ctx, 10,
		leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}, ObserveOptions{}, 2,
		rand.New(rand.NewSource(1)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Scenarios != 10 {
		t.Fatalf("Scenarios = %d, want 10 (requested count)", res.Scenarios)
	}
	if res.Evaluated != 0 {
		t.Fatalf("Evaluated = %d before any dispatch", res.Evaluated)
	}
}

func TestEvaluateParallelContextMidRunCancel(t *testing.T) {
	sys, err := tinySystem()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	// A single worker over many scenarios guarantees the run outlives the
	// cancel timer even on a fast machine, so the cancel lands mid-run
	// (2,000 test-network scenarios have taken under 10 ms).
	const count = 8000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	res, err := sys.EvaluateParallelContext(ctx, count,
		leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}, ObserveOptions{}, 1,
		rand.New(rand.NewSource(7)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Scenarios != count {
		t.Fatalf("Scenarios = %d, want %d", res.Scenarios, count)
	}
	// Partial accounting: only fully evaluated scenarios count, and the
	// cancel stopped the run before it could finish.
	if res.Evaluated >= count {
		t.Fatalf("Evaluated = %d, want < %d after cancel", res.Evaluated, count)
	}
	if res.MeanHamming < 0 || res.MeanHamming > 1 {
		t.Fatalf("MeanHamming = %v out of [0,1]", res.MeanHamming)
	}
}

func TestEvaluateParallelContextBackgroundMatchesLegacy(t *testing.T) {
	sys, err := tinySystem()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	leakCfg := leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}
	opt := ObserveOptions{Sources: Sources{Weather: true, Human: true}, ElapsedSlots: 2}
	legacy, err := sys.EvaluateParallel(12, leakCfg, opt, 3, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("EvaluateParallel: %v", err)
	}
	viaCtx, err := sys.EvaluateParallelContext(context.Background(), 12, leakCfg, opt, 3,
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("EvaluateParallelContext: %v", err)
	}
	if legacy.MeanHamming != viaCtx.MeanHamming || legacy.Evaluated != viaCtx.Evaluated ||
		legacy.HumanAdded != viaCtx.HumanAdded || legacy.Retries != viaCtx.Retries {
		t.Fatalf("background context diverged from legacy: %+v vs %+v", viaCtx, legacy)
	}
}

func TestTrainContextCancelledLeavesProfileUntouched(t *testing.T) {
	trained, err := tinySystem()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	// Fresh untrained system sharing the factory: a cancelled TrainContext
	// must return ctx.Err() and never install a partial profile.
	sys := NewSystem(trained.Factory(), trained.Network(), SystemConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = sys.TrainContext(ctx, 40, ProfileConfig{Technique: TechniqueLinear, Seed: 5},
		rand.New(rand.NewSource(3)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sys.Profile() != nil {
		t.Fatal("cancelled TrainContext installed a profile")
	}
}

// TestConcurrentLocalizeDuringSetProfile exercises the lock-free profile
// hot-swap: many goroutines localize against one shared System while
// another goroutine keeps swapping the (identical) profile in. Run under
// -race this proves Localize reads a coherent snapshot.
func TestConcurrentLocalizeDuringSetProfile(t *testing.T) {
	sys, err := tinySystem()
	if err != nil {
		t.Fatalf("fixture: %v", err)
	}
	profile := sys.Profile()
	want, _, err := sys.Localize(Observation{Features: make([]float64, sys.Factory().SensorCount())})
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}

	const goroutines, perG = 16, 25
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			obs := Observation{Features: make([]float64, sys.Factory().SensorCount())}
			for i := 0; i < perG; i++ {
				pred, _, err := sys.Localize(obs)
				if err != nil {
					errCh <- err
					return
				}
				for v := range want.Proba {
					if pred.Proba[v] != want.Proba[v] {
						errCh <- fmt.Errorf("proba[%d] = %v, want %v", v, pred.Proba[v], want.Proba[v])
						return
					}
				}
			}
		}()
	}
	swapDone := make(chan struct{})
	go func() {
		defer close(swapDone)
		for i := 0; i < 200; i++ {
			if err := sys.SetProfile(profile); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	<-swapDone
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
