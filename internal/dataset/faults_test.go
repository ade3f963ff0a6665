package dataset

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// faultyFactory builds an EPA-NET factory with the given fault config and
// retry budget.
func faultyFactory(t *testing.T, fcfg faults.Config, retries int) *Factory {
	t.Helper()
	net := network.BuildEPANet()
	f, err := NewFactory(net, epanetSensors(t, net, 20), Config{
		Leaks:  leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2},
		Retry:  hydraulic.RetryPolicy{MaxRetries: retries},
		Faults: fcfg,
	})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	return f
}

// TestGenerateSkipsExhaustedScenarios is the skip-and-account contract:
// scenarios whose forced failures outlast the retry budget are recorded in
// Dataset.Skipped with their error and retry count, and the run completes.
func TestGenerateSkipsExhaustedScenarios(t *testing.T) {
	// Forced failure depth 2 vs budget 1: every hit scenario skips.
	f := faultyFactory(t, faults.Config{SolverFail: 0.3, SolverFailAttempts: 2}, 1)
	const count = 40
	ds, err := f.Generate(count, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ds.Skipped) == 0 {
		t.Fatal("expected skipped scenarios at a 30% forced-failure rate")
	}
	if len(ds.Samples)+len(ds.Skipped) != count {
		t.Fatalf("samples (%d) + skipped (%d) != %d", len(ds.Samples), len(ds.Skipped), count)
	}
	prev := -1
	for _, sk := range ds.Skipped {
		if sk.Index <= prev || sk.Index >= count {
			t.Fatalf("skip indices not strictly increasing in range: %+v", ds.Skipped)
		}
		prev = sk.Index
		if !errors.Is(sk.Err, hydraulic.ErrNotConverged) {
			t.Fatalf("skipped scenario %d: err %v is not ErrNotConverged", sk.Index, sk.Err)
		}
		if sk.Retries != 1 {
			t.Fatalf("skipped scenario %d consumed %d retries, want the full budget 1", sk.Index, sk.Retries)
		}
		if len(sk.Scenario.Events) == 0 {
			t.Fatalf("skipped scenario %d lost its scenario payload", sk.Index)
		}
		if sk.Trace == nil {
			t.Fatalf("skipped scenario %d carries no trace", sk.Index)
		}
		var retrySteps int
		for _, e := range sk.Trace.Events {
			if e.Stage == string(telemetry.StageSolverRetry) {
				retrySteps++
			}
		}
		if retrySteps != sk.Retries {
			t.Fatalf("skipped scenario %d trace records %d retry steps, stats say %d",
				sk.Index, retrySteps, sk.Retries)
		}
		if sk.Trace.Error == "" {
			t.Fatalf("skipped scenario %d trace has no error", sk.Index)
		}
	}
}

// TestRetryTrace pins the offline trace-synthesis helper: clean solves
// yield no trace, retried/failed ones replay the ladder with warm/cold
// and injected provenance.
func TestRetryTrace(t *testing.T) {
	if RetryTrace("s", nil, nil) != nil {
		t.Fatal("clean solve must not synthesize a trace")
	}
	steps := []hydraulic.RetryStep{
		{Attempt: 1, Relaxation: 0.5, Warm: true},
		{Attempt: 2, Relaxation: 0.25, Warm: false, Injected: true},
	}
	snap := RetryTrace("scenario-3", steps, hydraulic.ErrNotConverged)
	if snap == nil || snap.Job != "scenario-3" {
		t.Fatalf("snapshot = %v", snap)
	}
	var got []string
	for _, e := range snap.Events {
		got = append(got, e.Stage+":"+e.Detail)
	}
	want := []string{
		"solver_retry:warm",
		"solver_retry:cold,injected",
		"error:" + hydraulic.ErrNotConverged.Error(),
		"done:",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timeline = %q, want %q", got, want)
	}
	if snap.Events[0].Value != 0.5 || snap.Events[1].Value != 0.25 {
		t.Fatalf("relaxation values = %v, %v", snap.Events[0].Value, snap.Events[1].Value)
	}
}

// TestGenerateRetryRecoversAll checks the other side: with the budget at
// the forced-failure depth, every scenario recovers and nothing skips.
func TestGenerateRetryRecoversAll(t *testing.T) {
	f := faultyFactory(t, faults.Config{SolverFail: 0.3, SolverFailAttempts: 1}, 1)
	ds, err := f.Generate(30, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ds.Skipped) != 0 {
		t.Fatalf("expected no skips with budget >= failure depth, got %d", len(ds.Skipped))
	}
	if len(ds.Samples) != 30 {
		t.Fatalf("samples = %d, want 30", len(ds.Samples))
	}
	recovered := 0
	for _, s := range ds.Samples {
		if s.Retries > 0 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("expected some samples to record retries at a 30% forced-failure rate")
	}
}

// TestGenerateAllSkippedErrors checks that a run where every scenario
// fails returns an error instead of an empty dataset.
func TestGenerateAllSkippedErrors(t *testing.T) {
	f := faultyFactory(t, faults.Config{SolverFail: 1, SolverFailAttempts: 1}, 0)
	if _, err := f.Generate(5, rand.New(rand.NewSource(9))); err == nil {
		t.Fatal("expected an error when every scenario is skipped")
	}
}

// TestGenerateWithFaultsDeterministic checks that fault injection is
// seed-stable: two runs at the same seed produce identical datasets,
// including the skip report.
func TestGenerateWithFaultsDeterministic(t *testing.T) {
	cfg := faults.Config{Dropout: 0.2, Stuck: 0.1, SolverFail: 0.2, SolverFailAttempts: 2}
	run := func() *Dataset {
		f := faultyFactory(t, cfg, 1)
		ds, err := f.Generate(24, rand.New(rand.NewSource(13)))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return ds
	}
	a, b := run(), run()
	if len(a.Samples) != len(b.Samples) || len(a.Skipped) != len(b.Skipped) {
		t.Fatalf("run shapes diverged: %d/%d vs %d/%d samples/skipped",
			len(a.Samples), len(a.Skipped), len(b.Samples), len(b.Skipped))
	}
	for i := range a.Samples {
		if !reflect.DeepEqual(a.Samples[i].Features, b.Samples[i].Features) {
			t.Fatalf("sample %d features diverged across identical seeds", i)
		}
		if a.Samples[i].Retries != b.Samples[i].Retries {
			t.Fatalf("sample %d retry counts diverged", i)
		}
	}
	for i := range a.Skipped {
		if a.Skipped[i].Index != b.Skipped[i].Index || a.Skipped[i].Retries != b.Skipped[i].Retries {
			t.Fatalf("skip report diverged at %d", i)
		}
	}
}

// TestFaultsDisabledMatchesBaseline pins the zero-config contract: a
// factory with a zero faults.Config (and no retry budget) produces
// bit-identical datasets to one that never heard of fault injection.
func TestFaultsDisabledMatchesBaseline(t *testing.T) {
	net := network.BuildEPANet()
	sensors := epanetSensors(t, net, 20)
	gen := func(cfg Config) *Dataset {
		f, err := NewFactory(net, sensors, cfg)
		if err != nil {
			t.Fatalf("NewFactory: %v", err)
		}
		ds, err := f.Generate(16, rand.New(rand.NewSource(21)))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return ds
	}
	base := Config{Leaks: leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}}
	withZeroFaults := base
	withZeroFaults.Faults = faults.Config{}
	withZeroFaults.Retry = hydraulic.RetryPolicy{}
	a, b := gen(base), gen(withZeroFaults)
	if !reflect.DeepEqual(a.Samples, b.Samples) {
		t.Fatal("zero fault config changed generated samples")
	}
}

// TestSensorFaultsSanitizedFeatures checks the degraded-input guard: NaN
// readings from dropout/NaN faults must surface as zero features, never as
// non-finite values.
func TestSensorFaultsSanitizedFeatures(t *testing.T) {
	f := faultyFactory(t, faults.Config{Dropout: 0.5, NaN: 0.3}, 0)
	ds, err := f.Generate(10, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for i, s := range ds.Samples {
		for j, v := range s.Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("sample %d feature %d is non-finite: %v", i, j, v)
			}
		}
	}
}

// TestScenarioErrorUnwrap pins the error-chain contract.
func TestScenarioErrorUnwrap(t *testing.T) {
	inner := &hydraulic.ConvergenceError{Iterations: 7}
	err := &ScenarioError{Retries: 2, Err: inner}
	if !errors.Is(err, hydraulic.ErrNotConverged) {
		t.Fatal("ScenarioError does not unwrap to ErrNotConverged")
	}
	var ce *hydraulic.ConvergenceError
	if !errors.As(err, &ce) || ce.Iterations != 7 {
		t.Fatal("ScenarioError does not expose the ConvergenceError")
	}
}
