package core

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
)

// faultySystem builds a trained system whose factory injects forced solver
// non-convergence during evaluation. The profile is trained on a clean
// dataset (so even rate-1 fault configs leave a usable system) and the
// fault-injecting factory only drives observation.
func faultySystem(t testing.TB, fcfg faults.Config, retries int) *System {
	t.Helper()
	net := network.BuildEPANet()
	base, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{Duration: 4 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		t.Fatalf("baseline EPS: %v", err)
	}
	placer, err := sensor.NewPlacer(net, base)
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	sensors, err := placer.KMedoids(12, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("KMedoids: %v", err)
	}
	leaks := leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}
	clean, err := dataset.NewFactory(net, sensors, dataset.Config{
		Noise: sensor.DefaultNoise,
		Leaks: leaks,
	})
	if err != nil {
		t.Fatalf("NewFactory (clean): %v", err)
	}
	ds, err := clean.Generate(60, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	faulty, err := dataset.NewFactory(net, sensors, dataset.Config{
		Noise:  sensor.DefaultNoise,
		Leaks:  leaks,
		Retry:  hydraulic.RetryPolicy{MaxRetries: retries},
		Faults: fcfg,
	})
	if err != nil {
		t.Fatalf("NewFactory (faulty): %v", err)
	}
	sys := NewSystem(faulty, net, SystemConfig{})
	if err := sys.TrainOn(ds, ProfileConfig{Technique: "linear", Seed: 5}); err != nil {
		t.Fatalf("TrainOn: %v", err)
	}
	return sys
}

// TestEvaluateParallelSkipsAndAccounts is the issue's acceptance
// criterion: with ~10% forced non-convergence past the retry budget over
// 200 scenarios, EvaluateParallel completes, reports every skipped
// scenario with its error and retry count, and is bit-identical for
// workers 1, 4 and NumCPU.
func TestEvaluateParallelSkipsAndAccounts(t *testing.T) {
	// Forced failure depth 2 vs budget 1: every hit scenario consumes its
	// budget and skips.
	sys := faultySystem(t, faults.Config{SolverFail: 0.1, SolverFailAttempts: 2}, 1)
	leakCfg := leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}
	opt := ObserveOptions{ElapsedSlots: 1}
	const count = 200
	run := func(workers int) EvalResult {
		t.Helper()
		res, err := sys.EvaluateParallel(count, leakCfg, opt, workers, rand.New(rand.NewSource(41)))
		if err != nil {
			t.Fatalf("EvaluateParallel(workers=%d): %v", workers, err)
		}
		return res
	}

	serial := run(1)
	if serial.Scenarios != count {
		t.Fatalf("scenarios = %d, want %d", serial.Scenarios, count)
	}
	if len(serial.Skipped) == 0 {
		t.Fatal("expected skipped scenarios at a 10% forced-failure rate")
	}
	if serial.Evaluated != count-len(serial.Skipped) {
		t.Fatalf("evaluated = %d, want %d - %d", serial.Evaluated, count, len(serial.Skipped))
	}
	if serial.Retries < len(serial.Skipped) {
		t.Fatalf("retries (%d) below skip count (%d): every skip consumed the budget", serial.Retries, len(serial.Skipped))
	}
	prev := -1
	for _, sk := range serial.Skipped {
		if sk.Index <= prev || sk.Index >= count {
			t.Fatalf("skip indices out of order or range: %+v", serial.Skipped)
		}
		prev = sk.Index
		if sk.Err == nil || !errors.Is(sk.Err, hydraulic.ErrNotConverged) {
			t.Fatalf("skipped scenario %d: err %v is not ErrNotConverged", sk.Index, sk.Err)
		}
		if sk.Retries != 1 {
			t.Fatalf("skipped scenario %d consumed %d retries, want the full budget 1", sk.Index, sk.Retries)
		}
	}

	for _, workers := range []int{4, runtime.NumCPU()} {
		par := run(workers)
		// Skipped carries error values; compare the report field-wise and
		// the rest via the scalar fields.
		if serial.MeanHamming != par.MeanHamming || serial.Evaluated != par.Evaluated ||
			serial.HumanAdded != par.HumanAdded || serial.Retries != par.Retries {
			t.Fatalf("workers=%d diverged: serial=%+v parallel=%+v", workers, serial, par)
		}
		if len(serial.Skipped) != len(par.Skipped) {
			t.Fatalf("workers=%d skip counts diverged: %d vs %d", workers, len(serial.Skipped), len(par.Skipped))
		}
		for i := range serial.Skipped {
			if serial.Skipped[i].Index != par.Skipped[i].Index ||
				serial.Skipped[i].Retries != par.Skipped[i].Retries ||
				serial.Skipped[i].Err.Error() != par.Skipped[i].Err.Error() {
				t.Fatalf("workers=%d skip report diverged at %d: %+v vs %+v",
					workers, i, serial.Skipped[i], par.Skipped[i])
			}
		}
	}
}

// TestEvaluateParallelRecoversWithBudget checks that a retry budget at the
// forced-failure depth recovers every hit scenario: nothing skips and the
// retry total is visible in the result.
func TestEvaluateParallelRecoversWithBudget(t *testing.T) {
	sys := faultySystem(t, faults.Config{SolverFail: 0.2, SolverFailAttempts: 1}, 1)
	leakCfg := leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}
	res, err := sys.EvaluateParallel(60, leakCfg, ObserveOptions{ElapsedSlots: 1}, 2, rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatalf("EvaluateParallel: %v", err)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("expected no skips with budget >= failure depth, got %d", len(res.Skipped))
	}
	if res.Evaluated != 60 {
		t.Fatalf("evaluated = %d, want 60", res.Evaluated)
	}
	if res.Retries == 0 {
		t.Fatal("expected recorded retries at a 20% forced-failure rate")
	}
}

// TestEvaluateParallelAllSkippedErrors checks the degenerate case.
func TestEvaluateParallelAllSkippedErrors(t *testing.T) {
	sys := faultySystem(t, faults.Config{SolverFail: 1, SolverFailAttempts: 1}, 0)
	leakCfg := leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}
	if _, err := sys.EvaluateParallel(6, leakCfg, ObserveOptions{ElapsedSlots: 1}, 2, rand.New(rand.NewSource(47))); err == nil {
		t.Fatal("expected an error when every scenario is skipped")
	}
}
