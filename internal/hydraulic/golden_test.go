//go:build amd64 && !amd64.v3

// The pinned digests are float-bit exact. GOAMD64=v3 and other
// architectures may fuse multiply-adds, which legitimately moves bits,
// so the golden only runs where it was recorded.

package hydraulic

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/network"
)

// steadyDigest hashes the bits of a steady result: every head, every
// flow, then each emitter's node index and discharge in ascending node
// order.
func steadyDigest(res *Result) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, v := range res.Head {
		put(math.Float64bits(v))
	}
	for _, v := range res.Flow {
		put(math.Float64bits(v))
	}
	nodes := make([]int, 0, len(res.EmitterFlow))
	for n := range res.EmitterFlow {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	for _, n := range nodes {
		put(uint64(n))
		put(math.Float64bits(res.EmitterFlow[n]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSteadySolveGolden pins the bits of SolveSteady on the three head
// systems the pipelines solve most (EPA-NET, WSSC-SUBNET and the 32×32
// grid of the corpus benchmark), without leaks and with three emitters
// at a quarter, half and three quarters of the junction list. A change
// to the Newton loop, the headloss arithmetic or the sparse factor that
// moves any bit of a head, flow or leak discharge fails here.
func TestSteadySolveGolden(t *testing.T) {
	cases := []struct {
		name       string
		net        *network.Network
		none, leak string
	}{
		{"epanet", network.BuildEPANet(),
			"153d562f412ea156311faa2c7f2261cbfefde126febebf4b1bfa84c6a60349fd",
			"61e38742e1d0797ab960734d91664b1ed7a062106e6c0f419ef57988d44083c0"},
		{"wssc", network.BuildWSSCSubnet(),
			"43ff73c8a54fd6d9231dfd3cc04be9abaf5e2d5cd172d09615552a3a11fa18c7",
			"b7dca12df3c074a73886841c020c323cba835143deb6298dbcd993c3bab4b9cf"},
		{"grid-32x32", network.BuildGrid(network.GridConfig{Rows: 32, Cols: 32}),
			"6514e330ba7e6f06447b1d789d346202b61f1a9644ae494f1ff3183f3aaee244",
			"9e0e26c7d71edcc65a2cb62a7496ab3f67e8936d3bf43595669d747564106481"},
	}
	for _, tc := range cases {
		s, err := NewSolver(tc.net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nj := len(s.junctions)
		leaks := []Emitter{
			{Node: s.junctions[nj/4], Coeff: 1e-3},
			{Node: s.junctions[nj/2], Coeff: 2e-3},
			{Node: s.junctions[3*nj/4], Coeff: 5e-4},
		}
		for _, run := range []struct {
			label    string
			emitters []Emitter
			want     string
		}{{"none", nil, tc.none}, {"three", leaks, tc.leak}} {
			res, err := s.SolveSteady(8*time.Hour, run.emitters, nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, run.label, err)
			}
			if got := steadyDigest(res); got != run.want {
				t.Errorf("%s/%s: digest %s, want %s", tc.name, run.label, got, run.want)
			}
		}
	}
}
