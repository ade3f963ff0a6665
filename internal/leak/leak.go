// Package leak models pipe failure events and generates the randomized
// failure scenarios used for profile training and evaluation.
//
// A leak event e = (l, s, t) is identified by its location (a node — the
// paper assumes failures at pipe joints), its size (the effective leak area
// EC in Q = EC·p^β), and its starting time slot. A scenario is a set of
// one or more concurrent events: the paper draws the event count from
// U(1, 5) with arbitrary locations and sizes but a shared start time,
// because concurrent failures are the hard case (they cannot be separated
// in the time series).
package leak

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/network"
)

// Event is one pipe failure e = (l, s, t).
type Event struct {
	// Node is the leak location e.l (node index into the network).
	Node int

	// Size is the effective leak area EC (e.s) in m³/s per m^β.
	Size float64

	// Start is the starting time slot e.t.
	Start time.Duration
}

// Scenario is a set of concurrent leak events plus the ground-truth label
// vector over nodes.
type Scenario struct {
	Events []Event
}

// Labels returns the per-node ground truth: 1 at leak locations, 0
// elsewhere.
func (s Scenario) Labels(nodeCount int) []int {
	y := make([]int, nodeCount)
	for _, e := range s.Events {
		if e.Node >= 0 && e.Node < nodeCount {
			y[e.Node] = 1
		}
	}
	return y
}

// LeakNodes returns the distinct leak locations.
func (s Scenario) LeakNodes() []int {
	seen := make(map[int]bool, len(s.Events))
	var out []int
	for _, e := range s.Events {
		if !seen[e.Node] {
			seen[e.Node] = true
			out = append(out, e.Node)
		}
	}
	return out
}

// Emitters converts the scenario to solver emitters (ignoring start times;
// use ScheduledEmitters for EPS runs).
func (s Scenario) Emitters() []hydraulic.Emitter {
	return s.AppendEmitters(make([]hydraulic.Emitter, 0, len(s.Events)))
}

// AppendEmitters appends the scenario's solver emitters to dst, so a
// sweep can reuse one buffer per worker.
func (s Scenario) AppendEmitters(dst []hydraulic.Emitter) []hydraulic.Emitter {
	for _, e := range s.Events {
		dst = append(dst, hydraulic.Emitter{Node: e.Node, Coeff: e.Size})
	}
	return dst
}

// PermPrefix returns rng.Perm(n)[:k] without building the permutation:
// it makes Perm's n Intn draws, so rng ends where Perm leaves it, and
// tracks only the first k slots, in dst's storage when it has room for
// k. Perm's inside-out shuffle writes slot j < k only when it draws j, so
// the slots at k and above never need to exist. k must be in [0, n].
func PermPrefix(rng *rand.Rand, n, k int, dst []int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("leak: PermPrefix k=%d outside [0, %d]", k, n))
	}
	if cap(dst) < k {
		dst = make([]int, k)
	}
	m := dst[:k]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		if i < k {
			m[i] = m[j]
		}
		if j < k {
			m[j] = i
		}
	}
	return m
}

// ScheduledEmitters converts the scenario for extended-period simulation.
func (s Scenario) ScheduledEmitters() []hydraulic.ScheduledEmitter {
	out := make([]hydraulic.ScheduledEmitter, 0, len(s.Events))
	for _, e := range s.Events {
		out = append(out, hydraulic.ScheduledEmitter{Node: e.Node, Coeff: e.Size, Start: e.Start})
	}
	return out
}

// GeneratorConfig controls random scenario generation.
type GeneratorConfig struct {
	// MinEvents and MaxEvents bound the uniform event count U(min, max).
	// The paper uses U(1, 5). Zero values mean 1 and 5.
	MinEvents int
	MaxEvents int

	// MinSize and MaxSize bound the log-uniform effective leak area EC.
	// Zero values mean [3e-4, 3e-3] — leaks of roughly 2–20 L/s at typical
	// 40 m service pressure, detectable but not dominating the network.
	MinSize float64
	MaxSize float64

	// Start is the shared starting time slot of all events in a scenario
	// (concurrent failures).
	Start time.Duration
}

func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.MinEvents <= 0 {
		c.MinEvents = 1
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 5
	}
	if c.MinSize <= 0 {
		c.MinSize = 3e-4
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 3e-3
	}
	return c
}

// Generator draws random leak scenarios over a network's junctions.
type Generator struct {
	cfg       GeneratorConfig
	junctions []int
	rng       *rand.Rand
	perm      []int // PermPrefix buffer, reused across draws
	events    EventBuffer
}

// EventBuffer hands out scenarios' event slices carved from shared
// blocks, so drawing many scenarios allocates per block, not per
// scenario. Each slice is cap-limited: appending to one reallocates
// instead of overwriting its neighbour.
type EventBuffer struct{ block []Event }

// Take returns k events that no other Take shares.
func (b *EventBuffer) Take(k int) []Event {
	if cap(b.block)-len(b.block) < k {
		b.block = make([]Event, 0, max(256, k))
	}
	n := len(b.block)
	b.block = b.block[:n+k]
	return b.block[n : n+k : n+k]
}

// NewGenerator builds a generator for the network. The rng drives all
// randomness so scenario streams are reproducible.
func NewGenerator(net *network.Network, cfg GeneratorConfig, rng *rand.Rand) (*Generator, error) {
	cfg = cfg.withDefaults()
	if cfg.MinEvents > cfg.MaxEvents {
		return nil, fmt.Errorf("leak: MinEvents %d > MaxEvents %d", cfg.MinEvents, cfg.MaxEvents)
	}
	if cfg.MinSize > cfg.MaxSize {
		return nil, fmt.Errorf("leak: MinSize %v > MaxSize %v", cfg.MinSize, cfg.MaxSize)
	}
	junctions := net.JunctionIndices()
	if len(junctions) < cfg.MaxEvents {
		return nil, fmt.Errorf("leak: network has %d junctions, fewer than MaxEvents %d",
			len(junctions), cfg.MaxEvents)
	}
	if rng == nil {
		return nil, fmt.Errorf("leak: nil rng")
	}
	return &Generator{cfg: cfg, junctions: junctions, rng: rng}, nil
}

// Next draws one scenario: the event count is uniform in
// [MinEvents, MaxEvents], locations are distinct random junctions, sizes
// are log-uniform in [MinSize, MaxSize], and all events share the
// configured start time.
func (g *Generator) Next() Scenario {
	count := g.cfg.MinEvents
	if span := g.cfg.MaxEvents - g.cfg.MinEvents; span > 0 {
		count += g.rng.Intn(span + 1)
	}
	// Distinct locations: rng.Perm(len(junctions))[:count], drawn by
	// PermPrefix, which makes Perm's Intn draws but keeps only the
	// first count slots.
	g.perm = PermPrefix(g.rng, len(g.junctions), count, g.perm)
	events := g.events.Take(count)
	logMin, logMax := math.Log(g.cfg.MinSize), math.Log(g.cfg.MaxSize)
	for i, pi := range g.perm {
		size := math.Exp(logMin + g.rng.Float64()*(logMax-logMin))
		events[i] = Event{
			Node:  g.junctions[pi],
			Size:  size,
			Start: g.cfg.Start,
		}
	}
	return Scenario{Events: events}
}

// Batch draws n scenarios.
func (g *Generator) Batch(n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
