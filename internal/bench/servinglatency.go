package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/leak"
	"github.com/aquascale/aquascale/internal/network"
	"github.com/aquascale/aquascale/internal/serve"
)

// ServingLatency measures the Phase-II observe hot path the way the
// serving daemon drives it: per-request latency on EPA-NET of the
// pointer-tree model bank (Profile.PredictProba, the fitting-time form
// kept as the test oracle, one allocation-heavy call per request) vs.
// the compiled profile every System serves (LocalizeInto on a reused
// buffer), plus the same requests served end-to-end through a
// one-district Fleet (Submit, queue, worker hand-off). All paths replay
// the same recorded evidence-free observations, so fusion leaves the
// probabilities untouched and the figure can assert the paths stay
// bit-identical, which is the correctness contract the compiled profile
// and the serving layer ship under. Structural columns are
// deterministic; the latency columns are wall-clock.
func ServingLatency(scale Scale) (*Figure, error) {
	scale = scale.withDefaults()
	fig := &Figure{
		ID:    "serving-latency",
		Title: "Serving hot path: pointer-tree vs. compiled flattened inference",
	}

	tb, err := newTestbed(network.BuildEPANet)
	if err != nil {
		return nil, err
	}
	sensors, err := tb.sensorsAtPercent(60, scale.Seed+5)
	if err != nil {
		return nil, err
	}
	leakCfg := leak.GeneratorConfig{MinEvents: 1, MaxEvents: 2}
	sys, err := tb.trainedSystem(sensors, leakCfg, scale)
	if err != nil {
		return nil, err
	}

	// Record a small pool of real observations once, then replay them:
	// latency is a property of the inference path, not the leak draw.
	const obsPool = 8
	rng := rand.New(rand.NewSource(scale.Seed + 23))
	observations := make([]core.Observation, 0, obsPool)
	for len(observations) < obsPool {
		sc, err := sys.GenerateColdScenario(leakCfg, rng)
		if err != nil {
			return nil, fmt.Errorf("bench: serving-latency scenario: %w", err)
		}
		obs, err := sys.Observe(sc, core.ObserveOptions{}, rng)
		if err != nil {
			return nil, fmt.Errorf("bench: serving-latency observe: %w", err)
		}
		observations = append(observations, obs)
	}

	requests := scale.TestScenarios * 25
	if requests < 500 {
		requests = 500
	}

	// Pointer path first, recording its probabilities for the parity check.
	prof := sys.Profile()
	pointerProba := make([][]float64, len(observations))
	for i, obs := range observations {
		proba, err := prof.PredictProba(obs.Features)
		if err != nil {
			return nil, fmt.Errorf("bench: serving-latency pointer: %w", err)
		}
		pointerProba[i] = proba
	}
	pointerLat, err := timeRequests(requests, func(i int) error {
		_, err := prof.PredictProba(observations[i%len(observations)].Features)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: serving-latency pointer: %w", err)
	}

	// Parity: the compiled path must be bit-identical to the pointer path.
	mismatches := 0
	pred := &fusion.Prediction{Proba: make([]float64, len(tb.net.Nodes))}
	for i, obs := range observations {
		if _, err := sys.LocalizeInto(pred, obs); err != nil {
			return nil, fmt.Errorf("bench: serving-latency compiled: %w", err)
		}
		for v := range pred.Proba {
			if math.Float64bits(pred.Proba[v]) != math.Float64bits(pointerProba[i][v]) {
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		return nil, fmt.Errorf("bench: serving-latency: compiled path diverged at %d probabilities", mismatches)
	}

	compiledLat, err := timeRequests(requests, func(i int) error {
		_, err := sys.LocalizeInto(pred, observations[i%len(observations)])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: serving-latency compiled: %w", err)
	}

	// Fleet-served: the same inference driven end-to-end through a
	// one-district Fleet the way aquad hosts it — Submit, queue, worker
	// hand-off and result-window accounting on top of the compiled path.
	fleet, err := serve.NewFleet([]serve.District{{ID: "epanet", Sys: sys}}, serve.Config{
		Workers:        1,
		QueueSize:      64,
		RequestTimeout: 30 * time.Second,
		TraceSample:    -1,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: serving-latency fleet: %w", err)
	}
	srv := fleet.District("epanet")
	serveOne := func(i int) (*serve.Result, error) {
		j, err := srv.Submit(serve.ObserveRequest{
			Features: observations[i%len(observations)].Features,
			Seed:     int64(i + 1),
		})
		if err != nil {
			return nil, err
		}
		<-j.Done()
		_, res, err := j.Status()
		return res, err
	}
	// Parity: results served through the fleet must stay bit-identical to
	// the offline Localize on each observation's own features.
	for i := range observations {
		res, err := serveOne(i)
		if err != nil {
			return nil, fmt.Errorf("bench: serving-latency fleet: %w", err)
		}
		offline, _, err := sys.Localize(core.Observation{Features: observations[i].Features})
		if err != nil {
			return nil, fmt.Errorf("bench: serving-latency fleet offline: %w", err)
		}
		for v := range res.Proba {
			if math.Float64bits(res.Proba[v]) != math.Float64bits(offline.Proba[v]) {
				mismatches++
			}
		}
	}
	if mismatches > 0 {
		return nil, fmt.Errorf("bench: serving-latency: fleet-served path diverged at %d probabilities", mismatches)
	}
	fleetLat, err := timeRequests(requests, func(i int) error {
		_, err := serveOne(i)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("bench: serving-latency fleet: %w", err)
	}
	if err := fleet.Shutdown(context.Background()); err != nil {
		return nil, fmt.Errorf("bench: serving-latency fleet drain: %w", err)
	}

	table := Table{
		Title: fmt.Sprintf("per-request observe latency, EPA-NET, %d sensors, %d requests over %d recorded observations",
			len(sensors), requests, len(observations)),
		Columns: []string{"path", "p50 us", "p99 us", "mean us", "speedup"},
	}
	table.Rows = append(table.Rows,
		latencyRow("pointer", pointerLat, pointerLat),
		latencyRow("compiled", compiledLat, pointerLat),
		latencyRow("fleet served", fleetLat, pointerLat),
	)
	fig.Tables = append(fig.Tables, table)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("compiled probabilities bit-identical to pointer path on all %d observations", len(observations)),
		"pointer path is Profile.PredictProba; compiled path is System.LocalizeInto on a reused buffer (0 allocs/op; see BenchmarkObserve)",
		"fleet served drives Submit+wait through a one-district serve.Fleet (queue, worker hand-off, result window) and stays bit-identical to offline Localize",
	)
	return fig, nil
}

// timeRequests runs n sequential requests and returns their individual
// latencies in microseconds.
func timeRequests(n int, do func(i int) error) ([]float64, error) {
	lat := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := do(i); err != nil {
			return nil, err
		}
		lat[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	return lat, nil
}

func latencyRow(name string, lat, baseline []float64) []string {
	return []string{
		name,
		fmt.Sprintf("%.1f", latPercentile(lat, 50)),
		fmt.Sprintf("%.1f", latPercentile(lat, 99)),
		fmt.Sprintf("%.1f", latMean(lat)),
		fmt.Sprintf("%.1fx", latMean(baseline)/latMean(lat)),
	}
}

// latPercentile returns the pth percentile (nearest-rank) of latencies.
func latPercentile(lat []float64, p float64) float64 {
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func latMean(lat []float64) float64 {
	total := 0.0
	for _, v := range lat {
		total += v
	}
	return total / float64(len(lat))
}
