package aquascale_test

import (
	"io"
	"math/rand"
	"testing"
	"time"

	"github.com/aquascale/aquascale"
	"github.com/aquascale/aquascale/internal/bench"
)

// benchScale keeps every figure benchmark tractable under `go test
// -bench=.` on a laptop. The aquabench command runs the same generators at
// larger scales (-train/-test flags); EXPERIMENTS.md records paper-scale
// comparisons.
var benchScale = bench.Scale{
	TrainSamples:  150,
	TestScenarios: 20,
	Seed:          1,
	Technique:     "svm",
}

// scoreOfFirstSeries extracts a headline metric from a figure for
// b.ReportMetric: the mean Y of the figure's last series (usually the
// fused or hybrid variant).
func scoreOfFirstSeries(fig *bench.Figure) float64 {
	if len(fig.Series) == 0 {
		return 0
	}
	s := fig.Series[len(fig.Series)-1]
	if len(s.Points) == 0 {
		return 0
	}
	total := 0.0
	for _, p := range s.Points {
		total += p.Y
	}
	return total / float64(len(s.Points))
}

func runFigureBenchmark(b *testing.B, id string) {
	b.Helper()
	runner, ok := bench.Experiments()[id]
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		fig, err := runner(benchScale)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if err := fig.Render(io.Discard); err != nil {
			b.Fatalf("render %s: %v", id, err)
		}
		if score := scoreOfFirstSeries(fig); score > 0 {
			b.ReportMetric(score, "score")
		}
	}
}

// One benchmark per paper table/figure (see DESIGN.md experiment index).

func BenchmarkFig2PressureDistance(b *testing.B)    { runFigureBenchmark(b, "fig2") }
func BenchmarkFig3BreaksVsTemperature(b *testing.B) { runFigureBenchmark(b, "fig3") }
func BenchmarkFig6MLComparison(b *testing.B)        { runFigureBenchmark(b, "fig6") }
func BenchmarkFig7HybridSweep(b *testing.B)         { runFigureBenchmark(b, "fig7ab") }
func BenchmarkFig7cFusionIncrement(b *testing.B)    { runFigureBenchmark(b, "fig7c") }
func BenchmarkFig8WSSCSurface(b *testing.B)         { runFigureBenchmark(b, "fig8") }
func BenchmarkFig9Coarseness(b *testing.B)          { runFigureBenchmark(b, "fig9") }
func BenchmarkFig10MaxEvents(b *testing.B)          { runFigureBenchmark(b, "fig10") }
func BenchmarkFig11Flood(b *testing.B)              { runFigureBenchmark(b, "fig11") }

// Ablation benchmarks for the design choices DESIGN.md calls out.

func BenchmarkAblationPlacement(b *testing.B)   { runFigureBenchmark(b, "ablation-placement") }
func BenchmarkAblationBayesFusion(b *testing.B) { runFigureBenchmark(b, "ablation-bayes") }
func BenchmarkAblationGamma(b *testing.B)       { runFigureBenchmark(b, "ablation-gamma") }
func BenchmarkAblationBeta(b *testing.B)        { runFigureBenchmark(b, "ablation-beta") }
func BenchmarkAblationDropout(b *testing.B)     { runFigureBenchmark(b, "ablation-dropout") }

// Substrate micro-benchmarks: the hot paths behind every experiment.

func BenchmarkSteadySolveEPANet(b *testing.B) {
	net := aquascale.BuildEPANet()
	solver, err := aquascale.NewSolver(net, aquascale.SolverOptions{})
	if err != nil {
		b.Fatal(err)
	}
	j, _ := net.NodeIndex("J45")
	emitters := []aquascale.Emitter{{Node: j, Coeff: 2e-3}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveSteady(8*time.Hour, emitters, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadySolveWSSC(b *testing.B) {
	net := aquascale.BuildWSSCSubnet()
	solver, err := aquascale.NewSolver(net, aquascale.SolverOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.SolveSteady(8*time.Hour, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEPSDayEPANet(b *testing.B) {
	net := aquascale.BuildEPANet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aquascale.RunEPS(net, aquascale.EPSOptions{
			Duration: 24 * time.Hour,
			Step:     15 * time.Minute,
		}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDatasetGeneration(b *testing.B) {
	net := aquascale.BuildEPANet()
	baseline, err := aquascale.RunEPS(net, aquascale.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		b.Fatal(err)
	}
	placer, err := aquascale.NewPlacer(net, baseline)
	if err != nil {
		b.Fatal(err)
	}
	sensors, err := placer.KMedoids(40, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	factory, err := aquascale.NewFactory(net, sensors, aquascale.DatasetConfig{
		Noise: aquascale.DefaultSensorNoise,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := factory.Generate(50, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileInference(b *testing.B) {
	net := aquascale.BuildEPANet()
	baseline, err := aquascale.RunEPS(net, aquascale.EPSOptions{Duration: 6 * time.Hour, Step: time.Hour}, nil)
	if err != nil {
		b.Fatal(err)
	}
	placer, err := aquascale.NewPlacer(net, baseline)
	if err != nil {
		b.Fatal(err)
	}
	sensors, err := placer.KMedoids(40, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	factory, err := aquascale.NewFactory(net, sensors, aquascale.DatasetConfig{
		Noise: aquascale.DefaultSensorNoise,
	})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := factory.Generate(200, rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	profile, err := aquascale.TrainProfile(ds, len(net.Nodes), aquascale.ProfileConfig{Technique: "svm", Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	features := ds.Samples[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Predict(features); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloodHour(b *testing.B) {
	net := aquascale.BuildTestNet()
	dem, err := aquascale.NewDEM(net, 50, 2)
	if err != nil {
		b.Fatal(err)
	}
	src := []aquascale.FloodSource{{
		X: net.Nodes[1].X, Y: net.Nodes[1].Y,
		Rate: func(time.Duration) float64 { return 0.05 },
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aquascale.SimulateFlood(dem, src, aquascale.FloodConfig{Duration: time.Hour}); err != nil {
			b.Fatal(err)
		}
	}
}
