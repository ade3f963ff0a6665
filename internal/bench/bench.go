// Package bench is the experiment harness: one generator per table/figure
// of the paper's evaluation (Sec. V), shared by the aquabench command and
// the repository's testing.B benchmarks. Each generator rebuilds the
// experiment — network, sensor placement, profile training, multi-source
// inference — and returns a renderable Figure with the same series the
// paper plots.
//
// Experiments accept a Scale so the same code runs CI-sized (seconds to
// minutes) or paper-sized (the paper trains on 20,000 scenarios and tests
// on 2,000). Absolute scores at reduced scale sit below the paper's; the
// qualitative shape — who wins, what improves with more sensors, sources
// and time — is preserved and recorded in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// Scale sets the experiment size.
type Scale struct {
	// TrainSamples is the Phase-I dataset size. Zero means 600.
	// The paper uses 20,000.
	TrainSamples int

	// TestScenarios is the evaluation set size. Zero means 60.
	// The paper uses 2,000.
	TestScenarios int

	// Seed drives every stochastic component.
	Seed int64

	// Technique is the profile classifier for fusion experiments.
	// Empty means core.TechniqueHybridRSL (the paper's choice after Fig 7).
	Technique core.Technique

	// Workers caps the parallel-evaluation worker pool. Zero means
	// runtime.NumCPU(); 1 forces serial evaluation. For a fixed Seed the
	// figures are identical at every worker count.
	Workers int

	// Faults injects deterministic sensor/solver faults into every data
	// factory the experiments build (see internal/faults). The zero value
	// injects nothing and leaves every figure bit-identical to a run
	// without this field.
	Faults faults.Config

	// Retries is the solver retry budget on non-convergence (stepped
	// relaxation + warm restart). Zero disables retry.
	Retries int
}

func (s Scale) withDefaults() Scale {
	if s.TrainSamples <= 0 {
		s.TrainSamples = 600
	}
	if s.TestScenarios <= 0 {
		s.TestScenarios = 60
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Technique == "" {
		s.Technique = core.TechniqueHybridRSL
	}
	return s
}

// PaperScale matches the paper's experiment sizes. Expect hours of compute.
var PaperScale = Scale{TrainSamples: 20000, TestScenarios: 2000, Seed: 1}

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is one named curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Table is a rendered matrix (used for surface figures like Fig 8).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Figure is a reproduced experiment output.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Tables []Table
	Notes  []string
}

// Render writes the figure as aligned ASCII tables.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n", f.ID, f.Title); err != nil {
		return err
	}
	if len(f.Series) > 0 {
		cols := []string{f.XLabel}
		for _, s := range f.Series {
			cols = append(cols, s.Name)
		}
		// Collect the x grid from the first series (all series share it).
		var rows [][]string
		for i, p := range f.Series[0].Points {
			row := []string{trimFloat(p.X)}
			for _, s := range f.Series {
				if i < len(s.Points) {
					row = append(row, fmt.Sprintf("%.3f", s.Points[i].Y))
				} else {
					row = append(row, "-")
				}
			}
			rows = append(rows, row)
		}
		if err := renderTable(w, Table{Title: f.YLabel, Columns: cols, Rows: rows}); err != nil {
			return err
		}
	}
	for _, t := range f.Tables {
		if err := renderTable(w, t); err != nil {
			return err
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.2f", v)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}

func renderTable(w io.Writer, t Table) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "-- %s --\n", t.Title); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	if err := line(seps); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// Runner maps experiment ids to their generators.
type Runner func(Scale) (*Figure, error)

// FigureSpanName is the telemetry span each experiment runs under; the
// aquabench per-figure timing lines and the metrics exporters both read
// this span, so the console and -metrics-out report the same measurement.
func FigureSpanName(id string) string { return "bench_figure_" + id }

// withSpan wraps a figure generator in its telemetry span. The span also
// completes on error, so failed experiments still leave a timing record.
func withSpan(id string, run Runner) Runner {
	return func(s Scale) (*Figure, error) {
		span := telemetry.Default().StartSpan(FigureSpanName(id))
		defer span.End()
		return run(s)
	}
}

// registry memoizes the span-wrapped experiment map so Experiments can
// hand out one shared instance instead of rebuilding it per call.
var registry struct {
	once sync.Once
	m    map[string]Runner
}

// Experiments lists every reproduced figure by id. The returned map is
// the registry itself, built once and shared by all callers — treat it
// as read-only.
func Experiments() map[string]Runner {
	registry.once.Do(func() {
		raw := experiments()
		registry.m = make(map[string]Runner, len(raw))
		for id, run := range raw {
			registry.m[id] = withSpan(id, run)
		}
	})
	return registry.m
}

func experiments() map[string]Runner {
	return map[string]Runner{
		"fig2":               Fig2PressureDistance,
		"fig3":               Fig3BreaksVsTemperature,
		"fig6":               Fig6MLComparison,
		"fig7ab":             Fig7HybridSweep,
		"fig7c":              Fig7cFusionIncrement,
		"fig8":               Fig8WSSCSurface,
		"fig9":               Fig9Coarseness,
		"fig10":              Fig10MaxEvents,
		"fig11":              Fig11Flood,
		"ablation-placement": AblationPlacement,
		"ablation-bayes":     AblationBayesFusion,
		"ablation-gamma":     AblationGammaThreshold,
		"ablation-beta":      AblationEmitterExponent,
		"ablation-dropout":   AblationSensorDropout,
		"fault-tolerance":    FaultTolerance,
	}
}

// ExperimentIDs returns the ids in a stable presentation order.
func ExperimentIDs() []string {
	return []string{
		"fig2", "fig3", "fig6", "fig7ab", "fig7c", "fig8", "fig9", "fig10", "fig11",
		"ablation-placement", "ablation-bayes", "ablation-gamma", "ablation-beta", "ablation-dropout",
		"fault-tolerance",
	}
}
