package leak

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/network"
)

func newGen(t *testing.T, cfg GeneratorConfig, seed int64) (*Generator, *network.Network) {
	t.Helper()
	n := network.BuildEPANet()
	g, err := NewGenerator(n, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	return g, n
}

func TestGeneratorDefaults(t *testing.T) {
	g, n := newGen(t, GeneratorConfig{}, 1)
	counts := make(map[int]int)
	for i := 0; i < 3000; i++ {
		s := g.Next()
		if len(s.Events) < 1 || len(s.Events) > 5 {
			t.Fatalf("event count %d outside U(1,5)", len(s.Events))
		}
		counts[len(s.Events)]++
		seen := make(map[int]bool)
		for _, e := range s.Events {
			if n.Nodes[e.Node].Type != network.Junction {
				t.Fatalf("leak at non-junction node %d", e.Node)
			}
			if seen[e.Node] {
				t.Fatal("duplicate leak location in one scenario")
			}
			seen[e.Node] = true
			if e.Size < 3e-4 || e.Size > 3e-3 {
				t.Fatalf("size %v outside default range", e.Size)
			}
		}
	}
	// Every count 1..5 should occur under a uniform draw over 3000 trials.
	for k := 1; k <= 5; k++ {
		if counts[k] == 0 {
			t.Fatalf("event count %d never drawn", k)
		}
	}
}

func TestGeneratorFixedCount(t *testing.T) {
	g, _ := newGen(t, GeneratorConfig{MinEvents: 3, MaxEvents: 3}, 2)
	for i := 0; i < 100; i++ {
		if got := len(g.Next().Events); got != 3 {
			t.Fatalf("event count = %d, want 3", got)
		}
	}
}

func TestGeneratorStartTime(t *testing.T) {
	start := 4 * time.Hour
	g, _ := newGen(t, GeneratorConfig{Start: start}, 3)
	s := g.Next()
	for _, e := range s.Events {
		if e.Start != start {
			t.Fatalf("start = %v, want %v", e.Start, start)
		}
	}
	sched := s.ScheduledEmitters()
	if len(sched) != len(s.Events) || sched[0].Start != start {
		t.Fatalf("ScheduledEmitters = %+v", sched)
	}
}

func TestGeneratorValidation(t *testing.T) {
	n := network.BuildEPANet()
	rng := rand.New(rand.NewSource(1))
	if _, err := NewGenerator(n, GeneratorConfig{MinEvents: 5, MaxEvents: 2}, rng); err == nil {
		t.Fatal("min > max events should error")
	}
	if _, err := NewGenerator(n, GeneratorConfig{MinSize: 1, MaxSize: 0.1}, rng); err == nil {
		t.Fatal("min > max size should error")
	}
	if _, err := NewGenerator(n, GeneratorConfig{}, nil); err == nil {
		t.Fatal("nil rng should error")
	}
	tiny := network.BuildTestNet() // 7 junctions
	if _, err := NewGenerator(tiny, GeneratorConfig{MaxEvents: 50}, rng); err == nil {
		t.Fatal("MaxEvents above junction count should error")
	}
}

func TestScenarioLabels(t *testing.T) {
	s := Scenario{Events: []Event{{Node: 2, Size: 1e-3}, {Node: 5, Size: 2e-3}}}
	y := s.Labels(8)
	for i, v := range y {
		want := 0
		if i == 2 || i == 5 {
			want = 1
		}
		if v != want {
			t.Fatalf("labels = %v", y)
		}
	}
	// Out-of-range nodes are ignored rather than panicking.
	bad := Scenario{Events: []Event{{Node: 99}}}
	if got := bad.Labels(4); got[0] != 0 {
		t.Fatalf("labels = %v", got)
	}
}

func TestScenarioLeakNodesDedup(t *testing.T) {
	s := Scenario{Events: []Event{{Node: 3}, {Node: 3}, {Node: 1}}}
	nodes := s.LeakNodes()
	if len(nodes) != 2 {
		t.Fatalf("LeakNodes = %v", nodes)
	}
}

func TestScenarioEmitters(t *testing.T) {
	s := Scenario{Events: []Event{{Node: 4, Size: 1.5e-3}}}
	em := s.Emitters()
	if len(em) != 1 || em[0].Node != 4 || em[0].Coeff != 1.5e-3 {
		t.Fatalf("Emitters = %+v", em)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, _ := newGen(t, GeneratorConfig{}, 42)
	g2, _ := newGen(t, GeneratorConfig{}, 42)
	for i := 0; i < 50; i++ {
		a, b := g1.Next(), g2.Next()
		if len(a.Events) != len(b.Events) {
			t.Fatal("non-deterministic scenario stream")
		}
		for k := range a.Events {
			if a.Events[k] != b.Events[k] {
				t.Fatal("non-deterministic event")
			}
		}
	}
}

func TestBatch(t *testing.T) {
	g, _ := newGen(t, GeneratorConfig{}, 9)
	batch := g.Batch(17)
	if len(batch) != 17 {
		t.Fatalf("batch size = %d", len(batch))
	}
}

// TestPermPrefixMatchesPerm pins PermPrefix to rand.Perm(n)[:k] for n up
// to 1024 and every k ≤ 5 over 200 seeds, and requires the stream to end
// where Perm leaves it.
func TestPermPrefixMatchesPerm(t *testing.T) {
	var buf []int
	for seed := int64(0); seed < 200; seed++ {
		pick := rand.New(rand.NewSource(seed))
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 31, 64, 1 + pick.Intn(1024), 1024} {
			for k := 0; k <= min(5, n); k++ {
				a := rand.New(rand.NewSource(seed*7919 + int64(n)))
				b := rand.New(rand.NewSource(seed*7919 + int64(n)))
				want := a.Perm(n)[:k]
				buf = PermPrefix(b, n, k, buf)
				if !slices.Equal(buf, want) {
					t.Fatalf("seed %d n=%d k=%d: PermPrefix %v, Perm %v", seed, n, k, buf, want)
				}
				if x, y := a.Int63(), b.Int63(); x != y {
					t.Fatalf("seed %d n=%d k=%d: stream diverges after the draw (%d vs %d)", seed, n, k, y, x)
				}
			}
		}
	}
}
