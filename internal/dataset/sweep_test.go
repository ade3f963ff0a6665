package dataset

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// TestSweepTelemetryMatchesOneByOne requires a block sweep to count what
// building the same scenarios one by one counts: solves, Newton
// iterations, factorizations, convergence failures, retries, samples,
// bad features and sample latencies. A three-iteration budget with a
// retry ladder sends some lanes back to the scalar path, which must
// count only what the one-by-one build counts; the samples must match
// bit for bit too.
func TestSweepTelemetryMatchesOneByOne(t *testing.T) {
	net := network.BuildEPANet()
	sensors := epanetSensors(t, net, 10)
	cfg := Config{
		Noise:  sensor.DefaultNoise,
		Solver: hydraulic.Options{MaxIterations: 5},
		Retry:  hydraulic.RetryPolicy{MaxRetries: 2},
	}
	const n = 37 // nine full blocks and a padded one
	counters := []string{
		"hydraulic_solves_total",
		"hydraulic_newton_iterations_total",
		"hydraulic_numeric_factorizations_total",
		"hydraulic_convergence_failures_total",
		"hydraulic_retries_total",
		"dataset_samples_generated_total",
		"dataset_bad_features_total",
		"dataset_retries_total",
	}
	run := func(build func(f *Factory) []Sample) (map[string]int64, []Sample) {
		reg := telemetry.Enable()
		defer telemetry.Disable()
		f, err := NewFactory(net, sensors, cfg)
		if err != nil {
			t.Fatal(err)
		}
		samples := build(f)
		out := map[string]int64{}
		for _, name := range counters {
			out[name] = reg.Counter(name).Value()
		}
		out["dataset_sample_seconds"] = int64(reg.Histogram("dataset_sample_seconds", nil).Count())
		return out, samples
	}
	sweep, swept := run(func(f *Factory) []Sample {
		ds, err := f.Generate(n, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Skipped) > 0 {
			t.Fatalf("%d scenarios skipped", len(ds.Skipped))
		}
		return ds.Samples
	})
	one, single := run(func(f *Factory) []Sample {
		scenarios, seeds, err := f.drawScenarios(n, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := f.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		var out []Sample
		for i, sc := range scenarios {
			s, err := sess.FromScenario(sc, rand.New(rand.NewSource(seeds[i])))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
		return out
	})
	if fmt.Sprint(sweep) != fmt.Sprint(one) {
		t.Fatalf("sweep telemetry %v\none by one        %v", sweep, one)
	}
	if sweep["hydraulic_retries_total"] == 0 || sweep["hydraulic_solves_total"] <= n {
		t.Fatalf("no lane took the retry ladder: %v", sweep)
	}
	if fmt.Sprint(swept) != fmt.Sprint(single) {
		t.Fatal("swept samples differ from samples built one by one")
	}
}
