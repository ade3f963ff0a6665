package dataset

import (
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/sensor"
)

// TestConfigDigestGolden pins Config.Digest to literals. The digest rides
// in every shard header and training checkpoint, so a change to what it
// hashes (or in what order) would orphan every corpus already on disk.
func TestConfigDigestGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"zero", Config{}, 0x932c4b15a89f68c6},
		{"non-default", Config{
			ElapsedSlots: 3,
			Step:         5 * time.Minute,
			BaseTime:     18 * time.Hour,
			Noise:        sensor.DefaultNoise,
			Leaks:        leak.GeneratorConfig{MinEvents: 2, MaxEvents: 4, MinSize: 1e-4, MaxSize: 2e-3, Start: 30 * time.Minute},
			Solver: hydraulic.Options{
				Accuracy:        1e-5,
				MaxIterations:   80,
				EmitterExponent: 0.6,
				PressureDriven:  true,
				MinPressure:     2,
				RefPressure:     25,
			},
			Retry:  hydraulic.RetryPolicy{MaxRetries: 2, Relaxation: 0.25},
			Faults: faults.Config{Dropout: 0.1, Stuck: 0.05, NaN: 0.02, SolverFail: 0.2, SolverFailAttempts: 3, RequestSlow: 0.3, RequestDelay: time.Millisecond, RequestFail: 0.01},
		}, 0x42927604ec4416a1},
	}
	for _, tc := range cases {
		if got := tc.cfg.Digest(); got != tc.want {
			t.Errorf("%s: Digest() = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
