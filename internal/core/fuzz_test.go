package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"

	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/network"
)

// Gob matches struct fields by name, so these mirrors of the profile
// wire format build crafted uploads the way an outside client could.
type (
	fuzzNode struct {
		Feature     int
		Threshold   float64
		Left, Right int
		Value       float64
		Leaf        bool
	}
	fuzzEnvelope struct {
		Kind    string
		Payload []byte
	}
	fuzzBank struct {
		Seed   int64
		Models [][]byte
	}
	fuzzScaler struct{ Mean, Inv []float64 }
	fuzzLinear struct {
		Scale  *fuzzScaler
		W      []float64
		Fitted bool
	}
)

// fuzzUpload encodes a profile whose every junction column is the one
// classifier (kind, state).
func fuzzUpload(tb testing.TB, header profileHeader, kind string, state any) []byte {
	tb.Helper()
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	model := encode(fuzzEnvelope{Kind: kind, Payload: encode(state)})
	bank := fuzzBank{Models: make([][]byte, len(header.Junctions))}
	for i := range bank.Models {
		bank.Models[i] = model
	}
	return append(encode(header), encode(bank)...)
}

// FuzzLoadProfile feeds arbitrary bytes to the profile upload path,
// LoadProfile then SetProfile. Either step may refuse the bytes, and
// then the live profile must keep serving bit-identical results; or the
// profile installs, and then localizing a sensor-wide observation must
// return without panicking. Seeds are the saved profile of every
// technique and the crafted uploads that used to crash or corrupt the
// daemon.
func FuzzLoadProfile(f *testing.F) {
	net := network.BuildTestNet()
	sys := NewSystem(junctionFactory(f, net), net, SystemConfig{})
	ds := syntheticDataset(net.JunctionIndices(), 40, rand.New(rand.NewSource(3)))
	for _, technique := range []Technique{TechniqueLinear, TechniqueLogistic, TechniqueSVM,
		TechniqueRF, TechniqueGB, TechniqueHybridRSL} {
		p, err := TrainProfile(ds, len(net.Nodes), ProfileConfig{Technique: technique, Seed: 1})
		if err != nil {
			f.Fatalf("%s: TrainProfile: %v", technique, err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			f.Fatalf("%s: Save: %v", technique, err)
		}
		f.Add(buf.Bytes())
	}
	if err := sys.TrainOn(ds, ProfileConfig{Technique: TechniqueRF, Seed: 1}); err != nil {
		f.Fatalf("TrainOn: %v", err)
	}
	live := sys.Profile()

	sensors := sys.Factory().SensorCount()
	header := profileHeader{Technique: "tree", Junctions: net.JunctionIndices(), NodeCount: len(net.Nodes)}
	pastNodes := header
	pastNodes.Junctions = append([]int(nil), header.Junctions...)
	pastNodes.Junctions[len(pastNodes.Junctions)-1] = header.NodeCount + 7
	leaf := fuzzNode{Leaf: true, Left: -1, Right: -1, Value: 0.5}
	tree := func(nodes ...fuzzNode) any { return struct{ Nodes []fuzzNode }{nodes} }
	forest := struct{ Trees [][]fuzzNode }{[][]fuzzNode{{leaf}, {}}}
	linear := func(w, scaler int) any {
		return fuzzLinear{Scale: &fuzzScaler{make([]float64, scaler), make([]float64, scaler)}, W: make([]float64, w), Fitted: true}
	}
	for _, crafted := range [][]byte{
		fuzzUpload(f, header, "tree", tree(fuzzNode{Feature: 0, Left: 0, Right: 0})),
		fuzzUpload(f, pastNodes, "tree", tree(leaf)),
		fuzzUpload(f, header, "tree", tree(fuzzNode{Feature: sensors + 2, Left: 1, Right: 2}, leaf, leaf)),
		fuzzUpload(f, header, "linear", linear(sensors+3, sensors+3)),
		fuzzUpload(f, header, "linear", linear(sensors, 1)),
		fuzzUpload(f, header, "rf", forest),
		fuzzUpload(f, header, "gb", forest),
	} {
		f.Add(crafted)
	}

	obs := Observation{Features: make([]float64, sensors)}
	for i := range obs.Features {
		obs.Features[i] = float64(i%3) - 1.5
	}
	pred := &fusion.Prediction{Proba: make([]float64, len(net.Nodes))}
	localize := func(t *testing.T) []float64 {
		t.Helper()
		if _, err := sys.LocalizeInto(pred, obs); err != nil {
			t.Fatalf("LocalizeInto: %v", err)
		}
		return append([]float64(nil), pred.Proba...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if sys.Profile() != live {
			if err := sys.SetProfile(live); err != nil {
				t.Fatalf("reinstall live profile: %v", err)
			}
		}
		before := localize(t)
		p, err := LoadProfile(bytes.NewReader(data))
		if err == nil {
			err = sys.SetProfile(p)
		}
		if err == nil {
			localize(t)
			return
		}
		if sys.Profile() != live {
			t.Fatalf("refused profile (%v) replaced the live one", err)
		}
		after := localize(t)
		for v, want := range before {
			if got := after[v]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("refused profile (%v) moved proba[%d]: %v → %v", err, v, want, got)
			}
		}
	})
}
