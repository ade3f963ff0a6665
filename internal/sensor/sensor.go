// Package sensor models the IoT instrumentation layer: pressure transducers
// at nodes and flow meters on pipes, sampled at the hydraulic time step
// (15 minutes in the paper), with Gaussian measurement noise.
//
// It also implements sensor placement. The paper selects sensor locations
// by partitioning the |V|+|E| candidate locations with the k-medoids
// algorithm over baseline pressure/flow signatures and instrumenting the
// cluster medoids; a uniform-random placer is provided as an ablation
// baseline.
package sensor

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/network"
)

// Kind distinguishes pressure sensors (on nodes) from flow meters (on
// links).
type Kind int

// Sensor kinds.
const (
	Pressure Kind = iota + 1
	Flow
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Pressure:
		return "pressure"
	case Flow:
		return "flow"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Sensor is one installed IoT device.
type Sensor struct {
	Kind  Kind
	Index int // node index (Pressure) or link index (Flow)
}

// Noise is the Gaussian measurement-noise model.
type Noise struct {
	// PressureStd is the standard deviation of pressure readings (m).
	PressureStd float64

	// FlowStd is the standard deviation of flow readings (m³/s).
	FlowStd float64
}

// DefaultNoise matches commodity district-metering instruments: ±2 cm
// of water column and ±0.2 L/s.
var DefaultNoise = Noise{PressureStd: 0.02, FlowStd: 2e-4}

// Snapshot is a steady hydraulic state as the sensors see it: pressure
// head per node and flow per link. *hydraulic.Result and a converged
// hydraulic.LaneState both are one, with the same bits for the same solve.
type Snapshot interface {
	PressureAt(node int) float64
	FlowAt(link int) float64
}

// Read samples every sensor from a steady-state snapshot, adding Gaussian
// noise (rng may be nil for noise-free readings). A sensor with an unknown
// Kind panics: silently reading 0.0 would flow into training features as a
// plausible value and corrupt every downstream model.
func Read(sensors []Sensor, res *hydraulic.Result, noise Noise, rng *rand.Rand) []float64 {
	out := make([]float64, len(sensors))
	ReadInto(out, sensors, res, noise, rng)
	return out
}

// ReadInto is Read into a caller-owned slice of one value per sensor.
func ReadInto(dst []float64, sensors []Sensor, snap Snapshot, noise Noise, rng *rand.Rand) {
	dst = dst[:len(sensors)]
	for i, s := range sensors {
		switch s.Kind {
		case Pressure:
			dst[i] = snap.PressureAt(s.Index)
		case Flow:
			dst[i] = snap.FlowAt(s.Index)
		default:
			panic(fmt.Sprintf("sensor: Read: sensor %d has unknown kind %v", i, s.Kind))
		}
	}
	ApplyNoise(sensors, dst, noise, rng)
}

// ApplyNoise perturbs noise-free readings in place with one fresh Gaussian
// measurement-noise draw per sensor, selecting each sensor's standard
// deviation by kind. It is the single source of truth for the per-kind
// noise model: Read and every simulated re-reading (e.g. the independent
// pre-leak baseline sample) share it, so a new sensor kind gets noise in
// every path or none. A nil rng or a zero standard deviation leaves the
// affected readings untouched (and draws nothing, keeping rng streams
// independent of zero-noise channels).
func ApplyNoise(sensors []Sensor, vals []float64, noise Noise, rng *rand.Rand) {
	if rng == nil {
		return
	}
	if len(vals) != len(sensors) {
		panic(fmt.Sprintf("sensor: ApplyNoise length mismatch %d vs %d", len(vals), len(sensors)))
	}
	for i, s := range sensors {
		var sd float64
		switch s.Kind {
		case Pressure:
			sd = noise.PressureStd
		case Flow:
			sd = noise.FlowStd
		default:
			panic(fmt.Sprintf("sensor: ApplyNoise: sensor %d has unknown kind %v", i, s.Kind))
		}
		if sd > 0 {
			vals[i] += rng.NormFloat64() * sd
		}
	}
}

// Delta returns after−before element-wise — the paper's feature: the change
// in each sensor's reading across the leak onset.
func Delta(before, after []float64) []float64 {
	out := make([]float64, len(before))
	DeltaInto(out, before, after)
	return out
}

// DeltaInto is Delta into a caller-owned slice of the same length.
func DeltaInto(dst, before, after []float64) {
	if len(before) != len(after) || len(dst) != len(before) {
		panic(fmt.Sprintf("sensor: Delta length mismatch %d vs %d into %d", len(before), len(after), len(dst)))
	}
	for i := range before {
		dst[i] = after[i] - before[i]
	}
}

// Placer selects sensor locations for a network using baseline hydraulic
// signatures (one time series per candidate location).
type Placer struct {
	candidates []Sensor
	signatures [][]float64 // normalized, aligned with candidates
}

// NewPlacer builds a placer from a baseline (leak-free) extended-period
// simulation: each node contributes its pressure series, each open pipe its
// flow series. Signatures are normalized to zero mean and unit norm so
// pressures and flows cluster on shape, not magnitude.
func NewPlacer(net *network.Network, baseline *hydraulic.TimeSeries) (*Placer, error) {
	if baseline.Steps() == 0 {
		return nil, fmt.Errorf("sensor: baseline has no snapshots")
	}
	p := &Placer{}
	for i := range net.Nodes {
		sig := make([]float64, baseline.Steps())
		for k := range sig {
			sig[k] = baseline.Pressure[k][i]
		}
		p.candidates = append(p.candidates, Sensor{Kind: Pressure, Index: i})
		p.signatures = append(p.signatures, normalize(sig))
	}
	for j := range net.Links {
		if net.Links[j].Status == network.Closed {
			continue
		}
		sig := make([]float64, baseline.Steps())
		for k := range sig {
			sig[k] = baseline.Flow[k][j]
		}
		p.candidates = append(p.candidates, Sensor{Kind: Flow, Index: j})
		p.signatures = append(p.signatures, normalize(sig))
	}
	return p, nil
}

// CandidateCount returns |V|+|E| (open links only).
func (p *Placer) CandidateCount() int { return len(p.candidates) }

// normalize shifts to zero mean and scales to unit norm; constant series
// map to the zero vector.
func normalize(sig []float64) []float64 {
	mean := 0.0
	for _, v := range sig {
		mean += v
	}
	mean /= float64(len(sig))
	out := make([]float64, len(sig))
	norm := 0.0
	for i, v := range sig {
		out[i] = v - mean
		norm += out[i] * out[i]
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	b = b[:len(a)] // one bounds check instead of one per element
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// KMedoids places count sensors at the medoids of a k-medoids partition of
// the candidate locations (Voronoi-iteration PAM variant). count values at
// or above CandidateCount return full instrumentation. Every medoid stays
// in its own cluster, so the count sensors are distinct even when
// candidates share a signature (constant series all normalize to zero).
func (p *Placer) KMedoids(count int, rng *rand.Rand) ([]Sensor, error) {
	n := len(p.candidates)
	if count <= 0 {
		return nil, fmt.Errorf("sensor: non-positive sensor count %d", count)
	}
	if rng == nil {
		return nil, fmt.Errorf("sensor: nil rng")
	}
	if count >= n {
		out := make([]Sensor, n)
		copy(out, p.candidates)
		return out, nil
	}

	// Initialize medoids with a random distinct sample.
	medoids := rng.Perm(n)[:count]
	assign := make([]int, n)
	members := make([][]int, count)
	// medoidOf[c] is the cluster whose medoid candidate c is, -1 if none.
	medoidOf := make([]int, n)
	for i := range medoidOf {
		medoidOf[i] = -1
	}

	for iter := 0; iter < 50; iter++ {
		// Assignment step. A medoid keeps its own candidate: a tie must
		// not hand it to another cluster, whose update could then move
		// onto it and place the same sensor twice.
		for i := range members {
			members[i] = members[i][:0]
		}
		for m, med := range medoids {
			medoidOf[med] = m
		}
		for i := 0; i < n; i++ {
			if m := medoidOf[i]; m >= 0 {
				assign[i] = m
				continue
			}
			sig := p.signatures[i]
			best, bestD := 0, math.Inf(1)
			for m, med := range medoids {
				if d := sqDist(sig, p.signatures[med]); d < bestD {
					best, bestD = m, d
				}
			}
			assign[i] = best
		}
		for i := 0; i < n; i++ {
			members[assign[i]] = append(members[assign[i]], i)
		}

		// Update step: each cluster's medoid minimizes total distance to
		// its members.
		changed := false
		for m := range medoids {
			if len(members[m]) == 0 {
				continue
			}
			best, bestCost := medoids[m], math.Inf(1)
			for _, cand := range members[m] {
				cost := 0.0
				for _, other := range members[m] {
					cost += sqDist(p.signatures[cand], p.signatures[other])
				}
				if cost < bestCost {
					best, bestCost = cand, cost
				}
			}
			if best != medoids[m] {
				medoidOf[medoids[m]] = -1
				medoids[m] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	out := make([]Sensor, count)
	for i, med := range medoids {
		out[i] = p.candidates[med]
	}
	return out, nil
}

// Random places count sensors uniformly at random — the placement-ablation
// baseline.
func (p *Placer) Random(count int, rng *rand.Rand) ([]Sensor, error) {
	n := len(p.candidates)
	if count <= 0 {
		return nil, fmt.Errorf("sensor: non-positive sensor count %d", count)
	}
	if rng == nil {
		return nil, fmt.Errorf("sensor: nil rng")
	}
	if count >= n {
		out := make([]Sensor, n)
		copy(out, p.candidates)
		return out, nil
	}
	out := make([]Sensor, count)
	for i, idx := range rng.Perm(n)[:count] {
		out[i] = p.candidates[idx]
	}
	return out, nil
}

// CountForPercent converts an IoT deployment percentage (the paper's
// "percentage of IoT observations") to a sensor count, at least 1.
func (p *Placer) CountForPercent(pct float64) int {
	c := int(math.Round(pct / 100 * float64(len(p.candidates))))
	if c < 1 {
		c = 1
	}
	if c > len(p.candidates) {
		c = len(p.candidates)
	}
	return c
}
