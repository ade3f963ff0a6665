package sensor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/hydraulic"
	"github.com/aquascale/aquascale/internal/network"
)

func testBaseline(t *testing.T, net *network.Network) *hydraulic.TimeSeries {
	t.Helper()
	ts, err := hydraulic.RunEPS(net, hydraulic.EPSOptions{
		Duration: 6 * time.Hour,
		Step:     time.Hour,
	}, nil)
	if err != nil {
		t.Fatalf("baseline EPS: %v", err)
	}
	return ts
}

func TestPlacerCandidates(t *testing.T) {
	net := network.BuildTestNet()
	p, err := NewPlacer(net, testBaseline(t, net))
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	want := len(net.Nodes) + len(net.Links) // all links open
	if got := p.CandidateCount(); got != want {
		t.Fatalf("candidates = %d, want %d", got, want)
	}
}

func TestPlacerExcludesClosedLinks(t *testing.T) {
	net := network.BuildTestNet()
	idx, _ := net.LinkIndex("P7")
	net.Links[idx].Status = network.Closed
	p, err := NewPlacer(net, testBaseline(t, net))
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	want := len(net.Nodes) + len(net.Links) - 1
	if got := p.CandidateCount(); got != want {
		t.Fatalf("candidates = %d, want %d", got, want)
	}
	for _, c := range allSensors(t, p) {
		if c.Kind == Flow && c.Index == idx {
			t.Fatal("closed link offered as flow-meter candidate")
		}
	}
}

func allSensors(t *testing.T, p *Placer) []Sensor {
	t.Helper()
	all, err := p.KMedoids(p.CandidateCount(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("KMedoids(all): %v", err)
	}
	return all
}

// TestKMedoidsCountAndDistinct places sensors with every placer on every
// built-in network at 10–90% IoT over several seeds and requires exactly
// the requested count of distinct sensors. On the test network many
// candidates share a signature, which is where k-medoids used to hand a
// medoid's own candidate to another cluster and place it twice.
func TestKMedoidsCountAndDistinct(t *testing.T) {
	nets := []*network.Network{
		network.BuildTestNet(),
		network.BuildEPANet(),
		network.BuildWSSCSubnet(),
		network.BuildGrid(network.GridConfig{Rows: 12, Cols: 12}),
	}
	for _, net := range nets {
		p, err := NewPlacer(net, testBaseline(t, net))
		if err != nil {
			t.Fatalf("NewPlacer: %v", err)
		}
		placers := map[string]func(int, *rand.Rand) ([]Sensor, error){"kmedoids": p.KMedoids, "random": p.Random}
		for name, place := range placers {
			for _, pct := range []float64{10, 30, 50, 70, 90} {
				for seed := int64(1); seed <= 4; seed++ {
					count := p.CountForPercent(pct)
					sensors, err := place(count, rand.New(rand.NewSource(seed)))
					if err != nil {
						t.Fatalf("%s %s(%d): %v", net.Name, name, count, err)
					}
					if len(sensors) != count {
						t.Fatalf("%s %s: placed %d sensors, want %d", net.Name, name, len(sensors), count)
					}
					seen := make(map[Sensor]bool)
					for _, s := range sensors {
						if seen[s] {
							t.Fatalf("%s %s at %v%% seed %d: duplicate sensor %+v", net.Name, name, pct, seed, s)
						}
						seen[s] = true
					}
				}
			}
		}
	}
}

// TestKMedoidsPlacementsUnchanged pins the placements the benchmark and
// figure deployments use (placement seed 5): keeping a medoid in its own
// cluster must not move a sensor where no duplicate occurred.
func TestKMedoidsPlacementsUnchanged(t *testing.T) {
	for _, c := range []struct {
		net  *network.Network
		pct  float64
		want string
	}{
		{network.BuildEPANet(), 60, "a99133efd9ab9dea"},
		{network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32}), 3, "0d4b04d356dc4d8f"},
		{network.BuildWSSCSubnet(), 30, "c73f9bf288d4d80d"},
	} {
		p, err := NewPlacer(c.net, testBaseline(t, c.net))
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.KMedoids(p.CountForPercent(c.pct), rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		if got := placementDigest(s); got != c.want {
			t.Fatalf("%s at %v%%: placement digest %s, want %s", c.net.Name, c.pct, got, c.want)
		}
	}
}

// placementDigest hashes a sensor list's kinds and indices in order.
func placementDigest(s []Sensor) string {
	h := sha256.New()
	var buf [16]byte
	for _, x := range s {
		binary.LittleEndian.PutUint64(buf[:8], uint64(x.Kind))
		binary.LittleEndian.PutUint64(buf[8:], uint64(x.Index))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func TestKMedoidsSpreadsBetterThanWorstCase(t *testing.T) {
	// The medoid placement should achieve lower within-cluster scatter than
	// an adversarially clumped selection. Compare mean distance from each
	// candidate to its nearest selected sensor.
	net := network.BuildEPANet()
	base := testBaseline(t, net)
	p, err := NewPlacer(net, base)
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	count := 12
	medoids, err := p.KMedoids(count, rng)
	if err != nil {
		t.Fatalf("KMedoids: %v", err)
	}
	// Clumped: first `count` candidates (consecutive nodes, highly correlated).
	clumped := make([]Sensor, count)
	copy(clumped, allSensorsOrdered(p)[:count])
	if cost(p, medoids) >= cost(p, clumped) {
		t.Fatalf("k-medoids cost %v not better than clumped cost %v",
			cost(p, medoids), cost(p, clumped))
	}
}

func allSensorsOrdered(p *Placer) []Sensor { return p.candidates }

// cost computes mean squared distance from every candidate signature to the
// nearest selected sensor's signature.
func cost(p *Placer, selected []Sensor) float64 {
	selIdx := make([]int, 0, len(selected))
	for _, s := range selected {
		for i, c := range p.candidates {
			if c == s {
				selIdx = append(selIdx, i)
				break
			}
		}
	}
	total := 0.0
	for i := range p.candidates {
		best := math.Inf(1)
		for _, j := range selIdx {
			if d := sqDist(p.signatures[i], p.signatures[j]); d < best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(p.candidates))
}

func TestPlacerValidation(t *testing.T) {
	net := network.BuildTestNet()
	p, _ := NewPlacer(net, testBaseline(t, net))
	rng := rand.New(rand.NewSource(1))
	if _, err := p.KMedoids(0, rng); err == nil {
		t.Fatal("zero count should error")
	}
	if _, err := p.KMedoids(3, nil); err == nil {
		t.Fatal("nil rng should error")
	}
	if _, err := p.Random(-1, rng); err == nil {
		t.Fatal("negative count should error")
	}
	if _, err := p.Random(3, nil); err == nil {
		t.Fatal("nil rng should error")
	}
	empty := &hydraulic.TimeSeries{}
	if _, err := NewPlacer(net, empty); err == nil {
		t.Fatal("empty baseline should error")
	}
}

func TestRandomPlacement(t *testing.T) {
	net := network.BuildTestNet()
	p, _ := NewPlacer(net, testBaseline(t, net))
	rng := rand.New(rand.NewSource(5))
	sensors, err := p.Random(4, rng)
	if err != nil {
		t.Fatalf("Random: %v", err)
	}
	if len(sensors) != 4 {
		t.Fatalf("placed %d, want 4", len(sensors))
	}
	all, err := p.Random(9999, rng)
	if err != nil {
		t.Fatalf("Random(all): %v", err)
	}
	if len(all) != p.CandidateCount() {
		t.Fatalf("oversized request returned %d, want %d", len(all), p.CandidateCount())
	}
}

func TestCountForPercent(t *testing.T) {
	net := network.BuildTestNet() // 8 nodes + 9 links = 17 candidates
	p, _ := NewPlacer(net, testBaseline(t, net))
	if got := p.CountForPercent(100); got != p.CandidateCount() {
		t.Fatalf("100%% = %d, want %d", got, p.CandidateCount())
	}
	if got := p.CountForPercent(0.0001); got != 1 {
		t.Fatalf("tiny pct = %d, want 1", got)
	}
	if got := p.CountForPercent(50); got != int(math.Round(float64(p.CandidateCount())/2)) {
		t.Fatalf("50%% = %d", got)
	}
	if got := p.CountForPercent(500); got != p.CandidateCount() {
		t.Fatalf("oversized pct = %d", got)
	}
}

func TestReadNoiseFreeMatchesResult(t *testing.T) {
	net := network.BuildTestNet()
	s, err := hydraulic.NewSolver(net, hydraulic.Options{})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := s.SolveSteady(0, nil, nil)
	if err != nil {
		t.Fatalf("SolveSteady: %v", err)
	}
	j5, _ := net.NodeIndex("J5")
	p1, _ := net.LinkIndex("P1")
	sensors := []Sensor{{Kind: Pressure, Index: j5}, {Kind: Flow, Index: p1}}
	vals := Read(sensors, res, DefaultNoise, nil) // nil rng → noise-free
	if vals[0] != res.Pressure[j5] || vals[1] != res.Flow[p1] {
		t.Fatalf("Read = %v, want [%v %v]", vals, res.Pressure[j5], res.Flow[p1])
	}
}

func TestReadNoiseStatistics(t *testing.T) {
	net := network.BuildTestNet()
	s, _ := hydraulic.NewSolver(net, hydraulic.Options{})
	res, _ := s.SolveSteady(0, nil, nil)
	j5, _ := net.NodeIndex("J5")
	sensors := []Sensor{{Kind: Pressure, Index: j5}}
	rng := rand.New(rand.NewSource(11))
	noise := Noise{PressureStd: 0.5}
	const trials = 4000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := Read(sensors, res, noise, rng)[0] - res.Pressure[j5]
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	std := math.Sqrt(sumSq/trials - mean*mean)
	if math.Abs(mean) > 0.03 {
		t.Fatalf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(std-0.5) > 0.05 {
		t.Fatalf("noise std = %v, want ~0.5", std)
	}
}

// TestReadUnknownKindPanics pins the fail-loud contract: a sensor with an
// uninitialized or unknown Kind must panic (naming the sensor index)
// instead of silently reading 0.0 into the feature stream.
func TestReadUnknownKindPanics(t *testing.T) {
	net := network.BuildTestNet()
	s, err := hydraulic.NewSolver(net, hydraulic.Options{})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	res, err := s.SolveSteady(0, nil, nil)
	if err != nil {
		t.Fatalf("SolveSteady: %v", err)
	}
	sensors := []Sensor{{Kind: Pressure, Index: 0}, {}} // zero Kind at index 1
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Read with an unknown sensor kind did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "sensor 1") {
			t.Fatalf("panic %v does not name the offending sensor index", r)
		}
	}()
	Read(sensors, res, DefaultNoise, nil)
}

// TestApplyNoiseUnknownKindPanics covers the same guard on the noise path,
// which also runs on simulated re-readings that bypass Read.
func TestApplyNoiseUnknownKindPanics(t *testing.T) {
	sensors := []Sensor{{Kind: Kind(99), Index: 0}}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ApplyNoise with an unknown sensor kind did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "sensor 0") {
			t.Fatalf("panic %v does not name the offending sensor index", r)
		}
	}()
	ApplyNoise(sensors, []float64{1}, DefaultNoise, rand.New(rand.NewSource(1)))
}

func TestDelta(t *testing.T) {
	d := Delta([]float64{1, 2, 3}, []float64{1.5, 1.0, 3.0})
	if d[0] != 0.5 || d[1] != -1.0 || d[2] != 0.0 {
		t.Fatalf("Delta = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	Delta([]float64{1}, []float64{1, 2})
}
