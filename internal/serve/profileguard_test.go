package serve

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/aquascale/aquascale/internal/core"
)

// Gob matches struct fields by name, so these mirrors of the profile
// wire format let a test build an upload byte for byte the way an
// outside client could, without any package internals.
type (
	wireNode struct {
		Feature     int
		Threshold   float64
		Left, Right int
		Value       float64
		Leaf        bool
	}
	wireTree     struct{ Nodes []wireNode }
	wireEnvelope struct {
		Kind    string
		Payload []byte
	}
	wireBank struct {
		Seed   int64
		Models [][]byte
	}
	wireHeader struct {
		Technique string
		Junctions []int
		NodeCount int
	}
)

// craftedProfile encodes a profile for sys's deployment whose every
// junction column is the single decision tree nodes.
func craftedProfile(t *testing.T, sys *core.System, nodes []wireNode) []byte {
	t.Helper()
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	model := encode(wireEnvelope{Kind: "tree", Payload: encode(wireTree{Nodes: nodes})})
	junctions := sys.Factory().Junctions()
	bank := wireBank{Models: make([][]byte, len(junctions))}
	for i := range bank.Models {
		bank.Models[i] = model
	}
	header := wireHeader{Technique: "tree", Junctions: junctions, NodeCount: len(testbed.net.Nodes)}
	return append(encode(header), encode(bank)...)
}

// TestCraftedProfileUploadRefused pins that neither crafted upload can
// take the daemon down: a self-linked split node (which used to recurse
// until a fatal stack overflow in Compile) and a split on a feature past
// the sensor vector (which used to panic with index out of range). Each
// fails with a typed error, and the live profile keeps serving the same
// results.
func TestCraftedProfileUploadRefused(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	sys := s.System()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	observe := func() []float64 {
		t.Helper()
		j, err := s.Submit(ObserveRequest{Features: testFeatures(sys, 5), Seed: 3})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		return waitResult(t, j).Proba
	}
	before := observe()
	live := sys.Profile()

	leaf := wireNode{Leaf: true, Left: -1, Right: -1, Value: 0.5}
	selfLinked := craftedProfile(t, sys, []wireNode{{Feature: 0, Left: 0, Right: 0}})
	wideFeature := craftedProfile(t, sys, []wireNode{{Feature: sys.Factory().SensorCount() + 2, Left: 1, Right: 2}, leaf, leaf})

	if _, err := core.LoadProfile(bytes.NewReader(selfLinked)); err == nil {
		t.Fatal("self-linked profile decoded")
	}
	p, err := core.LoadProfile(bytes.NewReader(wideFeature))
	if err != nil {
		t.Fatalf("LoadProfile(wide feature): %v", err)
	}
	if err := s.SwapProfile(p); !errors.Is(err, core.ErrFeatureOutOfRange) {
		t.Fatalf("SwapProfile(wide feature) = %v, want ErrFeatureOutOfRange", err)
	}

	for _, tc := range []struct {
		name string
		body []byte
		want int
	}{
		{"self-linked", selfLinked, http.StatusBadRequest},
		{"wide-feature", wideFeature, http.StatusConflict},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/profile", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: POST /v1/profile: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if sys.Profile() != live || !sys.Compiled() {
		t.Fatal("refused upload replaced or uncompiled the live profile")
	}
	if got := s.Status().ProfileSwaps; got != 0 {
		t.Fatalf("profile swaps = %d, want 0", got)
	}
	after := observe()
	for v := range before {
		if math.Float64bits(before[v]) != math.Float64bits(after[v]) {
			t.Fatalf("proba[%d] moved after refused uploads: %v → %v", v, before[v], after[v])
		}
	}
}
