package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/aquascale/aquascale/internal/network"
)

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	junctions := []int{1, 3, 4}
	ds := syntheticDataset(junctions, 120, rng)
	p, err := TrainProfile(ds, 6, ProfileConfig{Technique: "gb", Seed: 3})
	if err != nil {
		t.Fatalf("TrainProfile: %v", err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadProfile(&buf)
	if err != nil {
		t.Fatalf("LoadProfile: %v", err)
	}
	if loaded.Technique() != "gb" {
		t.Fatalf("technique = %q", loaded.Technique())
	}
	probe := []float64{-2, 0.1, 0}
	want, err := p.PredictProba(probe)
	if err != nil {
		t.Fatalf("PredictProba: %v", err)
	}
	got, err := loaded.PredictProba(probe)
	if err != nil {
		t.Fatalf("loaded PredictProba: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("length drift: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("node %d drift: %v vs %v", i, want[i], got[i])
		}
	}
}

func TestLoadProfileCorrupt(t *testing.T) {
	if _, err := LoadProfile(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Fatal("garbage input should error")
	}

	// A header whose junction map leaves [0, NodeCount) or is not strictly
	// increasing is refused before the bank is decoded.
	ds := syntheticDataset([]int{1, 3, 4}, 60, rand.New(rand.NewSource(1)))
	p, err := TrainProfile(ds, 6, ProfileConfig{Technique: "linear"})
	if err != nil {
		t.Fatalf("TrainProfile: %v", err)
	}
	for name, junctions := range map[string][]int{
		"past-node-count": {1, 3, 6},
		"negative":        {-1, 3, 4},
		"unsorted":        {1, 4, 3},
		"duplicate":       {1, 3, 3},
	} {
		bad := *p
		bad.junctions = junctions
		var buf bytes.Buffer
		if err := bad.Save(&buf); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		if _, err := LoadProfile(&buf); !errors.Is(err, ErrCorruptProfile) {
			t.Fatalf("%s: LoadProfile = %v, want ErrCorruptProfile", name, err)
		}
		if _, err := bad.Compile(); !errors.Is(err, ErrCorruptProfile) {
			t.Fatalf("%s: Compile = %v, want ErrCorruptProfile", name, err)
		}
	}
}

func TestSetProfile(t *testing.T) {
	net := network.BuildEPANet()
	sys := NewSystem(junctionFactory(t, net), net, SystemConfig{})
	if err := sys.SetProfile(nil); err == nil {
		t.Fatal("nil profile should error")
	}
	// Profile for a different node count must be rejected.
	rng := rand.New(rand.NewSource(2))
	ds := syntheticDataset([]int{0, 1}, 50, rng)
	small, err := TrainProfile(ds, 2, ProfileConfig{Technique: "linear"})
	if err != nil {
		t.Fatalf("TrainProfile: %v", err)
	}
	if err := sys.SetProfile(small); err == nil {
		t.Fatal("node-count mismatch should error")
	}
	// A matching profile installs and serves Localize.
	ds2 := syntheticDataset(net.JunctionIndices(), 60, rng)
	full, err := TrainProfile(ds2, len(net.Nodes), ProfileConfig{Technique: "linear"})
	if err != nil {
		t.Fatalf("TrainProfile: %v", err)
	}
	if err := sys.SetProfile(full); err != nil {
		t.Fatalf("SetProfile: %v", err)
	}
	if sys.Profile() != full {
		t.Fatal("profile not installed")
	}
	if _, _, err := sys.Localize(Observation{Features: make([]float64, sys.Factory().SensorCount())}); err != nil {
		t.Fatalf("Localize with installed profile: %v", err)
	}
	// A linear bank over four features does not fit a deployment with one
	// sensor per junction: refused, and the live profile stays.
	narrow, err := TrainProfile(syntheticDataset(net.JunctionIndices()[:4], 60, rng), len(net.Nodes),
		ProfileConfig{Technique: "linear"})
	if err != nil {
		t.Fatalf("TrainProfile: %v", err)
	}
	if err := sys.SetProfile(narrow); !errors.Is(err, ErrFeatureOutOfRange) {
		t.Fatalf("SetProfile(4-wide linear) = %v, want ErrFeatureOutOfRange", err)
	}
	if sys.Profile() != full {
		t.Fatal("refused profile replaced the live one")
	}
}
