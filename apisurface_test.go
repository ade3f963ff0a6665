package aquascale

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedSurface parses every non-test Go file of the facade package and
// returns its exported top-level identifiers, sorted. Methods are not
// collected: the facade re-exports internal types by alias, so its own
// surface is the set of names callers can reach as aquascale.X.
func exportedSurface(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(".", name), nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names = append(names, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							names = append(names, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								kind := "var"
								if d.Tok == token.CONST {
									kind = "const"
								}
								names = append(names, kind+" "+id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestExportedAPISurface is the facade's golden surface test: adding,
// renaming, or removing an exported identifier in package aquascale must
// be a deliberate act that updates this list. The diff output names
// exactly what changed, so an accidental export (or an accidental
// breaking removal) fails loudly in tier-1 instead of shipping.
func TestExportedAPISurface(t *testing.T) {
	got := exportedSurface(t)
	want := strings.Split(strings.TrimSpace(goldenSurface), "\n")
	sort.Strings(want)

	gotSet := make(map[string]bool, len(got))
	for _, n := range got {
		gotSet[n] = true
	}
	wantSet := make(map[string]bool, len(want))
	for _, n := range want {
		wantSet[n] = true
	}
	var added, removed []string
	for _, n := range got {
		if !wantSet[n] {
			added = append(added, n)
		}
	}
	for _, n := range want {
		if !gotSet[n] {
			removed = append(removed, n)
		}
	}
	if len(added) > 0 || len(removed) > 0 {
		t.Errorf("exported API surface changed:\n  new (add to goldenSurface if intended):\n    %s\n  missing (breaking removal if unintended):\n    %s",
			strings.Join(added, "\n    "), strings.Join(removed, "\n    "))
	}
}

// goldenSurface pins every exported identifier of the facade, one per
// line, "kind Name". Keep it sorted (the test sorts defensively).
const goldenSurface = `
const Closed
const FlowSensor
const FreezeThresholdF
const Junction
const Open
const Pipe
const PressureSensor
const Pump
const Reservoir
const ShardFormatVersion
const Tank
const TechniqueGB
const TechniqueHybridRSL
const TechniqueLinear
const TechniqueLogistic
const TechniqueRF
const TechniqueSVM
const Valve
func BuildCliques
func BuildEPANet
func BuildGrid
func BuildTestNet
func BuildWSSCSubnet
func ClassifierNames
func DetectOnset
func DisableTelemetry
func EnableTelemetry
func ExperimentIDs
func ExperimentSpanName
func Experiments
func FuseOdds
func HammingScore
func HammingScoreProba
func LoadProfile
func NewCUSUM
func NewDEM
func NewFactory
func NewFleet
func NewFusionEngine
func NewLeakGenerator
func NewLogger
func NewNetwork
func NewPlacer
func NewReportGenerator
func NewServer
func NewSolver
func NewSystem
func NewTextLogger
func NewWeatherSeries
func OpenCorpus
func ParseTechnique
func ReadINP
func ReadRuntimeHealth
func ReadSensors
func RunEPS
func RunEPSContext
func SimulateFlood
func SimulateFloodContext
func Techniques
func TelemetryDefault
func TrainProfile
func TrainProfileContext
func TrainProfileFromCorpus
func TweetConfidence
func VerifyShard
func WriteINP
type BreakRateModel
type CUSUM
type CUSUMConfig
type Clique
type ColdScenario
type ConvergenceError
type CorpusOptions
type CorpusPlan
type CorpusReader
type CorpusResult
type CorpusSample
type CorpusTrainOptions
type DEM
type DataSample
type Dataset
type DatasetConfig
type EPSOptions
type Emitter
type EvalResult
type ExperimentFigure
type ExperimentRunner
type ExperimentScale
type Factory
type FactorySession
type FaultConfig
type Fleet
type FleetDistrict
type FleetStatus
type FloodConfig
type FloodResult
type FloodSource
type FreezeModel
type FusionConfig
type FusionEngine
type GridConfig
type HydraulicResult
type LeakEvent
type LeakGenerator
type LeakGeneratorConfig
type LeakScenario
type Link
type LinkStatus
type LinkType
type LocalizeResult
type Network
type Node
type NodeType
type Observation
type ObserveOptions
type ObserveReport
type ObserveRequest
type Onset
type OnsetConfig
type Pattern
type Placer
type Prediction
type Profile
type ProfileConfig
type Rand
type Report
type ReportGenerator
type RetryPolicy
type RetryStats
type RuntimeHealth
type ScenarioError
type ScheduledEmitter
type Sensor
type SensorKind
type SensorNoise
type ServeConfig
type ServeJob
type ServeStatus
type Server
type ShardHeader
type SkippedScenario
type SocialConfig
type Solver
type SolverOptions
type Sources
type System
type SystemConfig
type Technique
type TelemetryRegistry
type TelemetrySnapshot
type TimeSeries
type TraceRecorder
type TraceSnapshot
type WeatherSeries
type WeatherSeriesConfig
var DefaultFreezeModel
var DefaultSensorNoise
var ErrCheckpointMismatch
var ErrCorpusMismatch
var ErrDraining
var ErrEvicted
var ErrNotConverged
var ErrQueueFull
var ErrShardChecksum
var ErrShardFormat
var ErrShardTruncated
var ErrShardVersion
`
