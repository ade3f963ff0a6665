package aquascale_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/aquascale/aquascale"
)

// These tests exercise the public facade end to end the way a downstream
// user would, complementing the internal packages' unit tests.

func TestPublicNetworkRoundTrip(t *testing.T) {
	net := aquascale.BuildEPANet()
	if net.JunctionCount() != 91 || net.PipeCount() != 118 {
		t.Fatalf("EPA-NET counts: %d junctions, %d pipes", net.JunctionCount(), net.PipeCount())
	}
	var buf bytes.Buffer
	if err := aquascale.WriteINP(&buf, net); err != nil {
		t.Fatalf("WriteINP: %v", err)
	}
	got, err := aquascale.ReadINP(&buf)
	if err != nil {
		t.Fatalf("ReadINP: %v", err)
	}
	if len(got.Nodes) != len(net.Nodes) {
		t.Fatalf("round trip lost nodes: %d vs %d", len(got.Nodes), len(net.Nodes))
	}
}

func TestPublicHydraulics(t *testing.T) {
	net := aquascale.BuildTestNet()
	solver, err := aquascale.NewSolver(net, aquascale.SolverOptions{})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	j5, _ := net.NodeIndex("J5")
	res, err := solver.SolveSteady(0, []aquascale.Emitter{{Node: j5, Coeff: 1e-3}}, nil)
	if err != nil {
		t.Fatalf("SolveSteady: %v", err)
	}
	if res.EmitterFlow[j5] <= 0 {
		t.Fatal("leak does not discharge")
	}
	ts, err := aquascale.RunEPS(net, aquascale.EPSOptions{Duration: time.Hour}, nil)
	if err != nil {
		t.Fatalf("RunEPS: %v", err)
	}
	if ts.Steps() != 5 {
		t.Fatalf("EPS steps = %d, want 5", ts.Steps())
	}
}

func TestPublicTwoPhaseWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a profile")
	}
	net := aquascale.BuildEPANet()
	baseline, err := aquascale.RunEPS(net, aquascale.EPSOptions{Duration: 4 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		t.Fatalf("RunEPS: %v", err)
	}
	placer, err := aquascale.NewPlacer(net, baseline)
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	sensors, err := placer.KMedoids(50, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatalf("KMedoids: %v", err)
	}
	factory, err := aquascale.NewFactory(net, sensors, aquascale.DatasetConfig{
		Noise: aquascale.DefaultSensorNoise,
		Leaks: aquascale.LeakGeneratorConfig{MinEvents: 1, MaxEvents: 2},
	})
	if err != nil {
		t.Fatalf("NewFactory: %v", err)
	}
	sys := aquascale.NewSystem(factory, net, aquascale.SystemConfig{})
	if err := sys.Train(150, aquascale.ProfileConfig{Technique: "svm", Seed: 7},
		rand.New(rand.NewSource(3))); err != nil {
		t.Fatalf("Train: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	sc, err := sys.GenerateColdScenario(aquascale.LeakGeneratorConfig{MinEvents: 1, MaxEvents: 2}, rng)
	if err != nil {
		t.Fatalf("GenerateColdScenario: %v", err)
	}
	obs, err := sys.Observe(sc, aquascale.ObserveOptions{
		Sources:      aquascale.Sources{Weather: true, Human: true},
		ElapsedSlots: 4,
		GammaM:       60,
	}, rng)
	if err != nil {
		t.Fatalf("Observe: %v", err)
	}
	pred, _, err := sys.Localize(obs)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	score := aquascale.HammingScore(pred.Set(), sc.Labels(len(net.Nodes)))
	if score < 0 || score > 1 {
		t.Fatalf("score = %v", score)
	}
}

func TestPublicFusionHelpers(t *testing.T) {
	if got := aquascale.TweetConfidence(0.3, 2); got < 0.9 || got > 0.92 {
		t.Fatalf("TweetConfidence = %v", got)
	}
	if got := aquascale.FuseOdds(0.6, 0.6); got <= 0.6 {
		t.Fatalf("FuseOdds = %v", got)
	}
	names := aquascale.ClassifierNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"hybrid-rsl", "rf", "svm"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("classifier %q missing from %v", want, names)
		}
	}
}

func TestPublicFlood(t *testing.T) {
	net := aquascale.BuildTestNet()
	dem, err := aquascale.NewDEM(net, 50, 2)
	if err != nil {
		t.Fatalf("NewDEM: %v", err)
	}
	dem.AddRoughness(0.2, 9)
	res, err := aquascale.SimulateFlood(dem, []aquascale.FloodSource{{
		X: net.Nodes[2].X, Y: net.Nodes[2].Y,
		Rate: func(time.Duration) float64 { return 0.05 },
	}}, aquascale.FloodConfig{Duration: 10 * time.Minute})
	if err != nil {
		t.Fatalf("SimulateFlood: %v", err)
	}
	if res.InflowVolume <= 0 || res.GlobalMaxDepth() <= 0 {
		t.Fatal("flood produced no water")
	}
}

func TestPublicExperimentRegistry(t *testing.T) {
	exps := aquascale.Experiments()
	ids := aquascale.ExperimentIDs()
	if len(exps) == 0 || len(exps) != len(ids) {
		t.Fatalf("experiments: %d vs ids: %d", len(exps), len(ids))
	}
	for _, id := range ids {
		if exps[id] == nil {
			t.Fatalf("nil runner for %q", id)
		}
	}
}

func TestPublicWeather(t *testing.T) {
	series, err := aquascale.NewWeatherSeries(aquascale.WeatherSeriesConfig{
		Duration: 24 * time.Hour,
		MeanF:    15, // deep cold
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewWeatherSeries: %v", err)
	}
	if series.At(5*time.Hour) > aquascale.FreezeThresholdF+15 {
		t.Fatalf("pre-dawn temp = %v, expected deep cold", series.At(5*time.Hour))
	}
	model := aquascale.DefaultFreezeModel
	if model.PFreeze != 0.8 || model.PLeakGivenFreeze != 0.9 {
		t.Fatalf("default freeze model = %+v", model)
	}
	var rate aquascale.BreakRateModel
	if rate.Rate(10) <= rate.Rate(70) {
		t.Fatal("break rate not amplified by cold")
	}
}
