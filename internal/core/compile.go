package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// CompiledProfile is the flattened, allocation-free inference form of a
// Profile: every per-node classifier compiled via mlearn.Compile, all
// evaluated against one shared feature vector, with the junction→node
// scatter done in place. Predictions are bit-identical to
// Profile.PredictProba.
type CompiledProfile struct {
	model        *mlearn.CompiledMultiOutput
	junctions    []int // label column → node index, strictly increasing
	nonJunctions []int // fixed-grade node indices (probability 0)
	nodeCount    int
}

// Compile flattens the profile's classifier bank.
func (p *Profile) Compile() (*CompiledProfile, error) {
	cm, err := p.model.Compile()
	if err != nil {
		return nil, fmt.Errorf("core: compile profile: %w", err)
	}
	// The in-place scatter below needs junctions[col] ≥ col, which holds
	// exactly when the column→node map is strictly increasing (as
	// TrainProfile builds it from JunctionIndices). Reject anything else
	// rather than corrupt the buffer silently.
	if err := checkJunctions(p.junctions, p.nodeCount); err != nil {
		return nil, fmt.Errorf("core: compile profile: %w", err)
	}
	isJunction := make([]bool, p.nodeCount)
	for _, v := range p.junctions {
		isJunction[v] = true
	}
	var nonJ []int
	for v, ok := range isJunction {
		if !ok {
			nonJ = append(nonJ, v)
		}
	}
	return &CompiledProfile{
		model:        cm,
		junctions:    append([]int(nil), p.junctions...),
		nonJunctions: nonJ,
		nodeCount:    p.nodeCount,
	}, nil
}

// NodeCount returns the network's |V| — the required buffer length for
// PredictProbaInto.
func (cp *CompiledProfile) NodeCount() int { return cp.nodeCount }

// PredictProbaInto writes per-node leak probabilities into out
// (len == NodeCount()). The per-junction columns are evaluated into the
// buffer's prefix, scattered in place to their node indices in
// descending column order (safe because junctions[col] ≥ col), then the
// fixed-grade positions are zeroed. No heap allocations when features
// are finite.
func (cp *CompiledProfile) PredictProbaInto(features, out []float64) error {
	if len(out) != cp.nodeCount {
		return fmt.Errorf("core: probability buffer has %d slots, want %d", len(out), cp.nodeCount)
	}
	if err := cp.model.PredictProbaInto(features, out[:len(cp.junctions)]); err != nil {
		return err
	}
	for col := len(cp.junctions) - 1; col >= 0; col-- {
		out[cp.junctions[col]] = out[col]
	}
	for _, v := range cp.nonJunctions {
		out[v] = 0
	}
	return nil
}

// memoKey is the baseline memo key: the paper's quiescent profile is a
// function of the network and the point in the daily demand cycle.
type memoKey struct {
	fingerprint uint64
	hour        int
}

// baselineMemo caches quiescent (leak-free, noise-free) sensor readings
// by (network fingerprint, pattern hour). Demand patterns repeat daily,
// so hour h and h+24 share one entry — unlike the factory's raw-duration
// solver cache, which re-solves for every distinct clock time.
type baselineMemo struct {
	fingerprint uint64
	mu          sync.RWMutex
	byKey       map[memoKey][]float64
}

func newBaselineMemo(fingerprint uint64) *baselineMemo {
	return &baselineMemo{fingerprint: fingerprint, byKey: make(map[memoKey][]float64)}
}

func (m *baselineMemo) get(hour int) ([]float64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	vals, ok := m.byKey[memoKey{m.fingerprint, hour}]
	return vals, ok
}

func (m *baselineMemo) put(hour int, vals []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byKey[memoKey{m.fingerprint, hour}] = vals
}

// installed is the one record Localize reads: a profile, its compiled
// form and the baseline memo, built together by newRecord and published
// with one pointer store, so a request sees all three from the same
// install.
type installed struct {
	profile *Profile
	model   *CompiledProfile
	memo    *baselineMemo
}

// install makes p the live profile, built by newRecord; a profile that
// fails any step is refused and the live record keeps serving.
func (s *System) install(p *Profile) error {
	rec, err := s.newRecord(p)
	if err != nil {
		return err
	}
	s.live.Store(rec)
	return nil
}

// newRecord checks p against the deployment (node count, and feature
// width via mlearn's CheckWidth), compiles it and warms a fresh baseline
// memo for the factory's base hour.
func (s *System) newRecord(p *Profile) (*installed, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil profile")
	}
	if p.nodeCount != len(s.net.Nodes) {
		return nil, fmt.Errorf("core: profile covers %d nodes, network has %d",
			p.nodeCount, len(s.net.Nodes))
	}
	if err := p.model.CheckWidth(s.factory.SensorCount()); err != nil {
		return nil, fmt.Errorf("%w: %d sensors: %v", ErrFeatureOutOfRange, s.factory.SensorCount(), err)
	}
	cp, err := p.Compile()
	if err != nil {
		return nil, err
	}
	memo := newBaselineMemo(s.net.Fingerprint())
	base := s.factory.BaseTime()
	vals, err := s.factory.BaselineReadings(base)
	if err != nil {
		return nil, fmt.Errorf("core: install profile: baseline: %w", err)
	}
	memo.put(patternHour(base), vals)
	return &installed{profile: p, model: cp, memo: memo}, nil
}

// Compile re-installs the live profile: its compiled form is rebuilt and
// the baseline memo starts over from the base hour. An install that lands
// while Compile runs wins; Compile never puts back a profile it replaced.
func (s *System) Compile() error {
	old := s.live.Load()
	if old == nil {
		return fmt.Errorf("core: compile: system not trained")
	}
	rec, err := s.newRecord(old.profile)
	if err != nil {
		return err
	}
	s.live.CompareAndSwap(old, rec)
	return nil
}

// QuiescentBaseline returns the leak-free noise-free sensor readings for
// the given pattern hour (hours outside [0,24) wrap into the daily
// cycle). Once a profile is installed the result is memoized by (network
// fingerprint, hour); before that it comes from the factory's solver
// cache. The returned slice is shared — treat it as read-only.
func (s *System) QuiescentBaseline(hour int) ([]float64, error) {
	return s.QuiescentBaselineContext(context.Background(), hour)
}

// QuiescentBaselineContext is QuiescentBaseline with per-request trace
// propagation: a trace carried by ctx records whether the lookup hit the
// (fingerprint, hour) memo or fell through to a hydraulic solve — the
// difference between a ~100ns map read and a multi-millisecond Newton
// solve, which is exactly the latency cliff a flight-recorder entry
// needs to explain.
func (s *System) QuiescentBaselineContext(ctx context.Context, hour int) ([]float64, error) {
	tr := telemetry.TraceFrom(ctx)
	h := ((hour % 24) + 24) % 24
	t := time.Duration(h) * time.Hour
	rec := s.live.Load()
	if rec == nil {
		tr.EventValue(telemetry.StageBaselineMemoMiss, float64(h))
		return s.factory.BaselineReadings(t)
	}
	if vals, ok := rec.memo.get(h); ok {
		tr.EventValue(telemetry.StageBaselineMemoHit, float64(h))
		return vals, nil
	}
	tr.EventValue(telemetry.StageBaselineMemoMiss, float64(h))
	vals, err := s.factory.BaselineReadings(t)
	if err != nil {
		return nil, err
	}
	rec.memo.put(h, vals)
	return vals, nil
}

func patternHour(t time.Duration) int {
	h := int(t/time.Hour) % 24
	if h < 0 {
		h += 24
	}
	return h
}
