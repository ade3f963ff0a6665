package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/dataset"
	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/sensor"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// junctionFactory places one pressure sensor at every junction, so the
// deployment's sensor vector is exactly as wide as syntheticDataset's
// feature rows over the same junctions.
func junctionFactory(t testing.TB, net *network.Network) *dataset.Factory {
	t.Helper()
	var sensors []sensor.Sensor
	for _, v := range net.JunctionIndices() {
		sensors = append(sensors, sensor.Sensor{Kind: sensor.Pressure, Index: v})
	}
	f, err := dataset.NewFactory(net, sensors, dataset.Config{})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	return f
}

// trainOnNet fits a profile over a network's real junction set using the
// synthetic indicator dataset, so compile tests cover the true column→node
// scatter of each evaluation network without slow hydraulic generation.
func trainOnNet(t *testing.T, net *network.Network, technique Technique, samples int) *System {
	t.Helper()
	sys := NewSystem(junctionFactory(t, net), net, SystemConfig{})
	ds := syntheticDataset(net.JunctionIndices(), samples, rand.New(rand.NewSource(17)))
	if err := sys.TrainOn(ds, ProfileConfig{Technique: technique, Seed: 5}); err != nil {
		t.Fatalf("TrainOn: %v", err)
	}
	return sys
}

// leakFeatures builds a feature vector with a leak signature at column
// hot, plus small noise everywhere.
func leakFeatures(rng *rand.Rand, dims, hot int) []float64 {
	x := make([]float64, dims)
	for j := range x {
		x[j] = rng.NormFloat64() * 0.1
	}
	x[hot] = -2
	return x
}

// oracleLocalize is Localize through the pointer model bank: the
// installed profile's PredictProba, then the system's fusion engine.
func oracleLocalize(t *testing.T, sys *System, obs Observation) (*fusion.Prediction, []int) {
	t.Helper()
	proba, err := sys.Profile().PredictProba(obs.Features)
	if err != nil {
		t.Fatalf("Profile.PredictProba: %v", err)
	}
	pred, added, err := sys.engine.Infer(proba, obs.Frozen, obs.Cliques)
	if err != nil {
		t.Fatalf("fusion: %v", err)
	}
	return pred, added
}

// assertMatchesOracle localizes obs through sys, both with Localize and
// with LocalizeInto on a buffer left dirty by an earlier request, and
// requires every probability bit and every human-added node to match
// oracleLocalize.
func assertMatchesOracle(t *testing.T, sys *System, obs Observation, label string) {
	t.Helper()
	got, gotAdded, err := sys.Localize(obs)
	if err != nil {
		t.Fatalf("%s: Localize: %v", label, err)
	}
	reused := &fusion.Prediction{Proba: make([]float64, len(got.Proba))}
	for v := range reused.Proba {
		reused.Proba[v] = math.NaN()
	}
	reusedAdded, err := sys.LocalizeInto(reused, obs)
	if err != nil {
		t.Fatalf("%s: LocalizeInto: %v", label, err)
	}
	want, wantAdded := oracleLocalize(t, sys, obs)
	for _, c := range []struct {
		name  string
		pred  *fusion.Prediction
		added []int
	}{{"Localize", got, gotAdded}, {"LocalizeInto", reused, reusedAdded}} {
		if len(c.pred.Proba) != len(want.Proba) {
			t.Fatalf("%s: %s proba length = %d, want %d", label, c.name, len(c.pred.Proba), len(want.Proba))
		}
		for v := range want.Proba {
			if math.Float64bits(c.pred.Proba[v]) != math.Float64bits(want.Proba[v]) {
				t.Fatalf("%s: %s node %d: compiled %v != oracle %v", label, c.name, v, c.pred.Proba[v], want.Proba[v])
			}
		}
		if !reflect.DeepEqual(c.added, wantAdded) {
			t.Fatalf("%s: %s human-added %v != oracle %v", label, c.name, c.added, wantAdded)
		}
	}
}

// TestCompiledLocalizeBitIdentical pins the acceptance criterion: on both
// evaluation networks Localize, which always runs the compiled profile,
// produces probabilities bit-identical to the pointer oracle.
func TestCompiledLocalizeBitIdentical(t *testing.T) {
	cases := []struct {
		name      string
		net       *network.Network
		technique Technique
		samples   int
	}{
		{"EPA-NET/hybrid", network.BuildEPANet(), TechniqueHybridRSL, 50},
		{"WSSC/rf", network.BuildWSSCSubnet(), TechniqueRF, 30},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys := trainOnNet(t, tc.net, tc.technique, tc.samples)
			dims := len(tc.net.JunctionIndices())
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 5; i++ {
				assertMatchesOracle(t, sys, Observation{Features: leakFeatures(rng, dims, rng.Intn(dims))},
					fmt.Sprintf("probe %d", i))
			}
			dirty := leakFeatures(rng, dims, 0)
			dirty[1] = math.NaN()
			assertMatchesOracle(t, sys, Observation{Features: dirty}, "NaN probe")
		})
	}
}

// TestInstallRoutesMatchOracle pins that every route installing a
// profile — TrainOn, SetProfile and TrainFromCorpus — installs it
// compiled: for all six techniques, each localizes observations carrying
// IoT, freeze and human evidence bit-identically to Profile.PredictProba
// plus fusion.
func TestInstallRoutesMatchOracle(t *testing.T) {
	factory, r := corpusFixture(t, 40, 11)
	net := network.BuildTestNet()
	ds, err := factory.Generate(40, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	ref := NewSystem(factory, net, SystemConfig{})
	if err := ref.Compile(); err == nil {
		t.Fatal("Compile on an untrained system should error")
	}
	rng := rand.New(rand.NewSource(5))
	opt := ObserveOptions{Sources: Sources{Weather: true, Human: true}, ElapsedSlots: 4, GammaM: 80}
	var probes []Observation
	for len(probes) < 4 {
		sc, err := ref.GenerateColdScenario(leak.GeneratorConfig{MinEvents: 1, MaxEvents: 3}, rng)
		if err != nil {
			t.Fatalf("GenerateColdScenario: %v", err)
		}
		obs, err := ref.Observe(sc, opt, rng)
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		probes = append(probes, obs)
	}

	for _, technique := range []Technique{TechniqueLinear, TechniqueLogistic, TechniqueSVM,
		TechniqueRF, TechniqueGB, TechniqueHybridRSL} {
		cfg := ProfileConfig{Technique: technique, Seed: 3}
		p, err := TrainProfile(ds, len(net.Nodes), cfg)
		if err != nil {
			t.Fatalf("%s: TrainProfile: %v", technique, err)
		}
		routes := []struct {
			name    string
			install func(*System) error
		}{
			{"TrainOn", func(sys *System) error { return sys.TrainOn(ds, cfg) }},
			{"SetProfile", func(sys *System) error { return sys.SetProfile(p) }},
			{"TrainFromCorpus", func(sys *System) error {
				return sys.TrainFromCorpus(context.Background(), r, cfg, CorpusTrainOptions{})
			}},
			{"Compile", func(sys *System) error {
				if err := sys.SetProfile(p); err != nil {
					return err
				}
				return sys.Compile()
			}},
		}
		for _, route := range routes {
			sys := NewSystem(factory, net, SystemConfig{})
			if err := route.install(sys); err != nil {
				t.Fatalf("%s/%s: %v", technique, route.name, err)
			}
			for i, obs := range probes {
				assertMatchesOracle(t, sys, obs, fmt.Sprintf("%s/%s probe %d", technique, route.name, i))
			}
		}
	}
}

// TestQuiescentBaselineMemo pins the memo semantics: hours wrap into the
// daily demand cycle, memoized lookups return the shared slice without
// re-solving, and an untrained system still answers via the factory.
func TestQuiescentBaselineMemo(t *testing.T) {
	net := network.BuildEPANet()
	factory := junctionFactory(t, net)

	// Untrained fallback.
	cold, err := NewSystem(factory, net, SystemConfig{}).QuiescentBaseline(8)
	if err != nil {
		t.Fatalf("untrained QuiescentBaseline: %v", err)
	}
	if len(cold) != factory.SensorCount() {
		t.Fatalf("baseline length = %d, want %d", len(cold), factory.SensorCount())
	}

	sys := NewSystem(factory, net, SystemConfig{})
	ds := syntheticDataset(net.JunctionIndices(), 20, rand.New(rand.NewSource(17)))
	if err := sys.TrainOn(ds, ProfileConfig{Technique: TechniqueLinear, Seed: 5}); err != nil {
		t.Fatalf("TrainOn: %v", err)
	}
	a, err := sys.QuiescentBaseline(8)
	if err != nil {
		t.Fatalf("QuiescentBaseline(8): %v", err)
	}
	b, err := sys.QuiescentBaseline(32) // same point in the daily cycle
	if err != nil {
		t.Fatalf("QuiescentBaseline(32): %v", err)
	}
	c, err := sys.QuiescentBaseline(-16) // ditto, wrapped from below
	if err != nil {
		t.Fatalf("QuiescentBaseline(-16): %v", err)
	}
	if &a[0] != &b[0] || &a[0] != &c[0] {
		t.Fatal("wrapped hours missed the memo entry")
	}

	want, err := sys.Factory().BaselineReadings(8 * time.Hour)
	if err != nil {
		t.Fatalf("BaselineReadings: %v", err)
	}
	for i := range want {
		if math.Float64bits(a[i]) != math.Float64bits(want[i]) {
			t.Fatalf("memoized baseline[%d] = %v, factory says %v", i, a[i], want[i])
		}
	}

	// The factory's base hour was warmed by the install itself.
	baseHour := int(sys.Factory().BaseTime() / time.Hour)
	if _, err := sys.QuiescentBaseline(baseHour); err != nil {
		t.Fatalf("QuiescentBaseline(base): %v", err)
	}
}

// TestLocalizeIntoZeroAlloc pins the tentpole's allocation guarantee: the
// observe path allocates nothing per request.
func TestLocalizeIntoZeroAlloc(t *testing.T) {
	net := network.BuildEPANet()
	sys := trainOnNet(t, net, TechniqueHybridRSL, 40)
	dims := len(net.JunctionIndices())
	x := leakFeatures(rand.New(rand.NewSource(3)), dims, 7)
	pred := &fusion.Prediction{Proba: make([]float64, len(net.Nodes))}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := sys.LocalizeInto(pred, Observation{Features: x}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("LocalizeInto allocated %v times per run, want 0", got)
	}
}

// TestLocalizeIntoContextZeroAlloc pins the tracing-compiled-in-but-
// unsampled guarantee: threading an untraced context through
// LocalizeIntoContext costs nothing — same 0 allocs/op as LocalizeInto,
// and bit-identical output.
func TestLocalizeIntoContextZeroAlloc(t *testing.T) {
	net := network.BuildEPANet()
	sys := trainOnNet(t, net, TechniqueHybridRSL, 40)
	dims := len(net.JunctionIndices())
	x := leakFeatures(rand.New(rand.NewSource(3)), dims, 7)
	ctx := context.Background()

	plain := &fusion.Prediction{Proba: make([]float64, len(net.Nodes))}
	if _, err := sys.LocalizeInto(plain, Observation{Features: x}); err != nil {
		t.Fatalf("LocalizeInto: %v", err)
	}
	pred := &fusion.Prediction{Proba: make([]float64, len(net.Nodes))}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := sys.LocalizeIntoContext(ctx, pred, Observation{Features: x}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("untraced LocalizeIntoContext allocated %v times per run, want 0", got)
	}
	for v := range pred.Proba {
		if pred.Proba[v] != plain.Proba[v] {
			t.Fatalf("node %d: context path %v != plain path %v", v, pred.Proba[v], plain.Proba[v])
		}
	}
}

// TestLocalizeIntoContextRecordsStages pins the traced variant: a trace
// on the context sees the eval and scatter stages, in that order and
// nothing else.
func TestLocalizeIntoContextRecordsStages(t *testing.T) {
	net := network.BuildEPANet()
	sys := trainOnNet(t, net, TechniqueHybridRSL, 40)
	dims := len(net.JunctionIndices())
	x := leakFeatures(rand.New(rand.NewSource(3)), dims, 7)
	pred := &fusion.Prediction{Proba: make([]float64, len(net.Nodes))}

	tr := telemetry.NewTrace(telemetry.TraceID{})
	ctx := telemetry.ContextWithTrace(context.Background(), tr)
	if _, err := sys.LocalizeIntoContext(ctx, pred, Observation{Features: x}); err != nil {
		t.Fatalf("LocalizeIntoContext: %v", err)
	}
	ev := tr.Snapshot().Events
	if len(ev) != 2 || ev[0].Stage != string(telemetry.StageEvalCompiled) ||
		ev[1].Stage != string(telemetry.StageJunctionScatter) {
		t.Fatalf("events = %+v, want eval_compiled then junction_scatter", ev)
	}
	if ev[1].Value != float64(dims) {
		t.Fatalf("scatter value = %v, want %d", ev[1].Value, dims)
	}
}

// TestLocalizeIntoValidatesBuffer pins the buffer-length and
// feature-width contracts.
func TestLocalizeIntoValidatesBuffer(t *testing.T) {
	net := network.BuildEPANet()
	sys := trainOnNet(t, net, TechniqueLinear, 20)
	dims := len(net.JunctionIndices())
	x := make([]float64, dims)
	short := &fusion.Prediction{Proba: make([]float64, len(net.Nodes)-1)}
	if _, err := sys.LocalizeInto(short, Observation{Features: x}); err == nil {
		t.Fatal("short prediction buffer accepted")
	}
	pred := &fusion.Prediction{Proba: make([]float64, len(net.Nodes))}
	if _, err := sys.LocalizeInto(pred, Observation{Features: x[:dims-1]}); err == nil {
		t.Fatal("observation narrower than the sensor set accepted")
	}
}

// BenchmarkObserve measures the Phase-II observe hot path, the serving
// configuration; both rows must report 0 B/op.
func BenchmarkObserve(b *testing.B) {
	net := network.BuildEPANet()
	sys := benchSystem(b, net)
	dims := len(net.JunctionIndices())
	x := leakFeatures(rand.New(rand.NewSource(3)), dims, 7)
	pred := &fusion.Prediction{Proba: make([]float64, len(net.Nodes))}

	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.LocalizeInto(pred, Observation{Features: x}); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Tracing compiled in but this request unsampled: context threading
	// must keep the 0 B/op guarantee.
	ctx := context.Background()
	b.Run("compiled-traced-unsampled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sys.LocalizeIntoContext(ctx, pred, Observation{Features: x}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchSystem(b *testing.B, net *network.Network) *System {
	b.Helper()
	sys := NewSystem(junctionFactory(b, net), net, SystemConfig{})
	ds := syntheticDataset(net.JunctionIndices(), 40, rand.New(rand.NewSource(17)))
	if err := sys.TrainOn(ds, ProfileConfig{Technique: TechniqueHybridRSL, Seed: 5}); err != nil {
		b.Fatalf("TrainOn: %v", err)
	}
	return sys
}
