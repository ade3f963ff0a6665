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
	"github.com/aquascale/aquascale/internal/mlearn"
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
	wireScaler struct{ Mean, Inv []float64 }
	wireLinear struct {
		Cfg    struct{ Lambda float64 }
		Scale  *wireScaler
		W      []float64
		Fitted bool
	}
)

// craftedBank encodes a profile whose every junction column in header
// is the single classifier model (kind, state).
func craftedBank(t *testing.T, header wireHeader, kind string, state any) []byte {
	t.Helper()
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	model := encode(wireEnvelope{Kind: kind, Payload: encode(state)})
	bank := wireBank{Models: make([][]byte, len(header.Junctions))}
	for i := range bank.Models {
		bank.Models[i] = model
	}
	return append(encode(header), encode(bank)...)
}

// servedHeader is the profile header of sys's deployment.
func servedHeader(sys *core.System, technique string) wireHeader {
	return wireHeader{Technique: technique, Junctions: sys.Factory().Junctions(), NodeCount: len(sys.Network().Nodes)}
}

// craftedProfile encodes a profile for sys's deployment whose every
// junction column is the single decision tree nodes.
func craftedProfile(t *testing.T, sys *core.System, nodes []wireNode) []byte {
	return craftedBank(t, servedHeader(sys, "tree"), "tree", wireTree{Nodes: nodes})
}

// craftedLinear encodes a profile for sys's deployment whose every
// junction column is a fitted linear model with w weights and a scaler
// of the given width.
func craftedLinear(t *testing.T, sys *core.System, w, scaler int) []byte {
	return craftedBank(t, servedHeader(sys, "linear"), "linear", wireLinear{
		Scale:  &wireScaler{Mean: make([]float64, scaler), Inv: make([]float64, scaler)},
		W:      make([]float64, w),
		Fitted: true,
	})
}

// TestCraftedProfileUploadRefused pins that no crafted upload can take
// the daemon down or leave a half-installed profile behind:
//   - a self-linked split node, which used to recurse until a fatal stack
//     overflow in Compile;
//   - a header whose junction map points past NodeCount, which used to be
//     answered 409 yet stay installed, so the next observe panicked in
//     Profile.PredictProba;
//   - a split on a feature past the sensor vector, and linear banks with
//     more weights than sensors or a scaler shorter than the weights,
//     which used to panic with index out of range.
//
// Each fails with a typed error, is not counted as a swap, and the live
// profile keeps serving bit-identical results.
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

	sensors := sys.Factory().SensorCount()
	leaf := wireNode{Leaf: true, Left: -1, Right: -1, Value: 0.5}
	pastNodes := servedHeader(sys, "tree")
	pastNodes.Junctions[len(pastNodes.Junctions)-1] = pastNodes.NodeCount + 7
	cases := []struct {
		name string
		body []byte
		load error // LoadProfile's error, nil if the profile decodes
		swap error // SwapProfile's error for a profile that decodes
		want int   // POST /v1/profile status
	}{
		{"self-linked", craftedProfile(t, sys, []wireNode{{Feature: 0, Left: 0, Right: 0}}),
			mlearn.ErrCorruptTree, nil, http.StatusBadRequest},
		{"junction-past-nodes", craftedBank(t, pastNodes, "tree", wireTree{Nodes: []wireNode{leaf}}),
			core.ErrCorruptProfile, nil, http.StatusBadRequest},
		{"wide-feature", craftedProfile(t, sys, []wireNode{{Feature: sensors + 2, Left: 1, Right: 2}, leaf, leaf}),
			nil, core.ErrFeatureOutOfRange, http.StatusConflict},
		{"wide-linear", craftedLinear(t, sys, sensors+3, sensors+3),
			nil, core.ErrFeatureOutOfRange, http.StatusConflict},
		{"short-scaler", craftedLinear(t, sys, sensors, 1),
			nil, core.ErrFeatureOutOfRange, http.StatusConflict},
	}
	for _, tc := range cases {
		p, err := core.LoadProfile(bytes.NewReader(tc.body))
		if tc.load != nil {
			if !errors.Is(err, tc.load) {
				t.Errorf("%s: LoadProfile = %v, want %v", tc.name, err, tc.load)
			}
		} else if err != nil {
			t.Fatalf("%s: LoadProfile: %v", tc.name, err)
		}
		if p != nil {
			if err := s.SwapProfile(p); !errors.Is(err, tc.swap) || err == nil {
				t.Errorf("%s: SwapProfile = %v, want %v", tc.name, err, tc.swap)
			}
		}

		resp, err := ts.Client().Post(ts.URL+"/v1/profile", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: POST /v1/profile: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	if sys.Profile() != live {
		t.Error("refused upload replaced the live profile")
	}
	if got := s.Status().ProfileSwaps; got != 0 {
		t.Errorf("profile swaps = %d, want 0", got)
	}
	after := observe()
	for v := range before {
		if math.Float64bits(before[v]) != math.Float64bits(after[v]) {
			t.Fatalf("proba[%d] moved after refused uploads: %v → %v", v, before[v], after[v])
		}
	}
}
