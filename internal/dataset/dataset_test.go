package dataset

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
)

// epanetSensors places a deterministic sensor set on EPA-NET.
func epanetSensors(t *testing.T, net *network.Network, count int) []sensor.Sensor {
	t.Helper()
	ts, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		t.Fatalf("baseline EPS: %v", err)
	}
	placer, err := sensor.NewPlacer(net, ts)
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	sensors, err := placer.KMedoids(count, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("KMedoids: %v", err)
	}
	return sensors
}

func TestFactoryBasics(t *testing.T) {
	net := network.BuildEPANet()
	sensors := epanetSensors(t, net, 30)
	f, err := NewFactory(net, sensors, Config{})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	if f.SensorCount() != 30 {
		t.Fatalf("SensorCount = %d", f.SensorCount())
	}
	if len(f.Junctions()) != 91 {
		t.Fatalf("junction columns = %d, want 91", len(f.Junctions()))
	}
	for col, nodeIdx := range f.Junctions() {
		if f.JunctionColumn(nodeIdx) != col {
			t.Fatalf("JunctionColumn(%d) = %d, want %d", nodeIdx, f.JunctionColumn(nodeIdx), col)
		}
	}
	// Reservoirs map to no column.
	ri, _ := net.NodeIndex("RES-W")
	if f.JunctionColumn(ri) != -1 {
		t.Fatal("reservoir should have no label column")
	}
}

func TestFactoryValidation(t *testing.T) {
	net := network.BuildEPANet()
	if _, err := NewFactory(net, nil, Config{}); err == nil {
		t.Fatal("no sensors should error")
	}
	f, _ := NewFactory(net, epanetSensors(t, net, 10), Config{})
	if _, err := f.Generate(0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero count should error")
	}
}

func TestFromScenarioSignal(t *testing.T) {
	// A leak adjacent to a pressure sensor must produce a negative
	// pressure delta at that sensor (noise-free).
	net := network.BuildEPANet()
	leakNode, _ := net.NodeIndex("J40")
	sensors := []sensor.Sensor{{Kind: sensor.Pressure, Index: leakNode}}
	f, err := NewFactory(net, sensors, Config{})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	sc := leak.Scenario{Events: []leak.Event{{Node: leakNode, Size: 2e-3, Start: 8 * time.Hour}}}
	s, err := f.FromScenario(sc, nil)
	if err != nil {
		t.Fatalf("FromScenario: %v", err)
	}
	if s.Features[0] >= 0 {
		t.Fatalf("pressure delta at leak = %v, want negative", s.Features[0])
	}
	col := f.JunctionColumn(leakNode)
	if s.Labels[col] != 1 {
		t.Fatal("leak node not labeled")
	}
	ones := 0
	for _, v := range s.Labels {
		ones += v
	}
	if ones != 1 {
		t.Fatalf("label count = %d, want 1", ones)
	}
}

func TestGenerateDataset(t *testing.T) {
	net := network.BuildEPANet()
	f, err := NewFactory(net, epanetSensors(t, net, 25), Config{
		Noise: sensor.DefaultNoise,
	})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	ds, err := f.Generate(40, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(ds.Samples) != 40 {
		t.Fatalf("samples = %d", len(ds.Samples))
	}
	x, y := ds.X(), ds.Y()
	if len(x) != 40 || len(y) != 40 {
		t.Fatal("X/Y views wrong size")
	}
	for i, s := range ds.Samples {
		if len(s.Features) != 25 {
			t.Fatalf("sample %d: %d features", i, len(s.Features))
		}
		if len(s.Labels) != 91 {
			t.Fatalf("sample %d: %d labels", i, len(s.Labels))
		}
		leaks := 0
		for _, v := range s.Labels {
			leaks += v
		}
		if leaks < 1 || leaks > 5 {
			t.Fatalf("sample %d: %d leaks outside U(1,5)", i, leaks)
		}
		if len(s.Scenario.Events) < leaks {
			t.Fatalf("sample %d: scenario/label mismatch", i)
		}
		for _, v := range s.Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("sample %d: non-finite feature %v", i, v)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	net := network.BuildEPANet()
	sensors := epanetSensors(t, net, 15)
	mk := func(seed int64) *Dataset {
		f, err := NewFactory(net, sensors, Config{Noise: sensor.DefaultNoise})
		if err != nil {
			t.Fatalf("NewFactory: %v", err)
		}
		ds, err := f.Generate(12, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		return ds
	}
	a, b := mk(42), mk(42)
	for i := range a.Samples {
		for j := range a.Samples[i].Features {
			if a.Samples[i].Features[j] != b.Samples[i].Features[j] {
				t.Fatalf("sample %d feature %d differs", i, j)
			}
		}
		for j := range a.Samples[i].Labels {
			if a.Samples[i].Labels[j] != b.Samples[i].Labels[j] {
				t.Fatalf("sample %d label %d differs", i, j)
			}
		}
	}
	c := mk(43)
	same := true
	for i := range a.Samples {
		for j := range a.Samples[i].Features {
			if a.Samples[i].Features[j] != c.Samples[i].Features[j] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestElapsedSlotsStrengthenSignal(t *testing.T) {
	// More elapsed time means demand-pattern drift joins the leak signal;
	// the leak-node pressure delta must remain negative and the factory
	// must honor the configured slot count.
	net := network.BuildEPANet()
	leakNode, _ := net.NodeIndex("J40")
	sensors := []sensor.Sensor{{Kind: sensor.Pressure, Index: leakNode}}
	sc := leak.Scenario{Events: []leak.Event{{Node: leakNode, Size: 2e-3}}}
	for _, slots := range []int{1, 4, 8} {
		f, err := NewFactory(net, sensors, Config{ElapsedSlots: slots})
		if err != nil {
			t.Fatalf("NewFactory(n=%d): %v", slots, err)
		}
		s, err := f.FromScenario(sc, nil)
		if err != nil {
			t.Fatalf("FromScenario(n=%d): %v", slots, err)
		}
		if s.Features[0] >= 0 {
			t.Fatalf("n=%d: delta = %v, want negative", slots, s.Features[0])
		}
	}
}

func TestGenerateSamplesAppendSafe(t *testing.T) {
	net := network.BuildEPANet()
	f, err := NewFactory(net, epanetSensors(t, net, 10), Config{Noise: sensor.DefaultNoise})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	ds, err := f.Generate(3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for i, s := range ds.Samples {
		if cap(s.Features) != len(s.Features) || cap(s.Labels) != len(s.Labels) {
			t.Fatalf("sample %d: slices not cap-limited", i)
		}
	}
	next := ds.Samples[1]
	f1, l1 := next.Features[0], next.Labels[0]
	first := &ds.Samples[0]
	first.Features = append(first.Features, -1)
	first.Labels = append(first.Labels, -1)
	if next.Features[0] != f1 || next.Labels[0] != l1 {
		t.Fatal("appending to sample 0 overwrote sample 1")
	}
}
