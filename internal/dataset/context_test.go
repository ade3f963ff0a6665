package dataset

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
)

// testNetFactory builds a factory on the small test network so context
// tests stay fast enough to run many scenarios.
func testNetFactory(t *testing.T) *Factory {
	t.Helper()
	net := network.BuildTestNet()
	j, ok := net.NodeIndex("J2")
	if !ok {
		t.Fatal("test network lost node J2")
	}
	f, err := NewFactory(net, []sensor.Sensor{{Kind: sensor.Pressure, Index: j}}, Config{
		Noise: sensor.DefaultNoise,
		Leaks: leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2},
	})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	return f
}

func TestGenerateContextPreCancelled(t *testing.T) {
	f := testNetFactory(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds, err := f.GenerateContext(ctx, 10, rand.New(rand.NewSource(1)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ds == nil {
		t.Fatal("cancelled GenerateContext should still return the partial dataset")
	}
	if len(ds.Samples) != 0 {
		t.Fatalf("%d samples built before any dispatch", len(ds.Samples))
	}
}

func TestGenerateContextMidRunCancel(t *testing.T) {
	f := testNetFactory(t)
	// Large count so the run outlives the cancel timer on any machine:
	// 2,000 test-network samples have taken under 10 ms.
	const count = 8000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	ds, err := f.GenerateContext(ctx, count, rand.New(rand.NewSource(3)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ds == nil {
		t.Fatal("cancelled GenerateContext should still return the partial dataset")
	}
	if len(ds.Samples) >= count {
		t.Fatalf("samples = %d, want < %d after cancel", len(ds.Samples), count)
	}
	// Every kept sample is fully built, in scenario order.
	for i, s := range ds.Samples {
		if len(s.Features) != f.SensorCount() || len(s.Labels) != len(f.Junctions()) {
			t.Fatalf("partial sample %d: %d features, %d labels", i, len(s.Features), len(s.Labels))
		}
	}
}

func TestGenerateContextBackgroundMatchesLegacy(t *testing.T) {
	f := testNetFactory(t)
	legacy, err := f.Generate(25, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	viaCtx, err := f.GenerateContext(context.Background(), 25, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatalf("GenerateContext: %v", err)
	}
	if len(legacy.Samples) != len(viaCtx.Samples) {
		t.Fatalf("sample counts diverge: %d vs %d", len(legacy.Samples), len(viaCtx.Samples))
	}
	for i := range legacy.Samples {
		for j := range legacy.Samples[i].Features {
			if legacy.Samples[i].Features[j] != viaCtx.Samples[i].Features[j] {
				t.Fatalf("sample %d feature %d: %v vs %v", i, j,
					legacy.Samples[i].Features[j], viaCtx.Samples[i].Features[j])
			}
		}
		for j := range legacy.Samples[i].Labels {
			if legacy.Samples[i].Labels[j] != viaCtx.Samples[i].Labels[j] {
				t.Fatalf("sample %d label %d diverges", i, j)
			}
		}
	}
}
