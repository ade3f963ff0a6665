package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/aquascale/aquascale"
)

var manifestDefaults = fleetDistrict{Net: "test", IoT: 30, Seed: 1}

// TestFleetManifestCheckedBeforeBuild requires a manifest whose third
// district lacks a profile to be refused before any district is built:
// the first two name profiles that do not exist, so building either
// would fail with a file error instead.
func TestFleetManifestCheckedBeforeBuild(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	manifest := `{"districts": [
		{"id": "a", "profile": "` + filepath.Join(dir, "a.gob") + `"},
		{"id": "b", "profile": "` + filepath.Join(dir, "b.gob") + `"},
		{"id": "c"}
	]}`
	if err := os.WriteFile(path, []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := buildFleet(path, manifestDefaults, aquascale.ServeConfig{}, &syncBuffer{})
	if err == nil || !strings.Contains(err.Error(), `district "c" has no profile`) {
		t.Fatalf("buildFleet = %v, want the missing-profile error before any build", err)
	}
}

func TestParseFleetManifest(t *testing.T) {
	got, err := parseFleetManifest([]byte(`{"districts": [
		{"id": "north", "profile": "n.gob", "unknown": true},
		{"id": "south", "profile": "s.gob", "net": "wssc", "iot": 60, "seed": 2}
	], "comment": "unknown fields load"}`), manifestDefaults)
	if err != nil {
		t.Fatal(err)
	}
	want := []fleetDistrict{
		{ID: "north", Profile: "n.gob", Net: "test", IoT: 30, Seed: 1},
		{ID: "south", Profile: "s.gob", Net: "wssc", IoT: 60, Seed: 2},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", got, want)
	}
	for _, raw := range []string{``, `{}`, `{"districts": []}`, `{"districts": [{"id": "x"}]}`, `{"districts": 3}`, `[`} {
		if d, err := parseFleetManifest([]byte(raw), manifestDefaults); err == nil || d != nil {
			t.Fatalf("manifest %q: got %+v, %v; want a refusal", raw, d, err)
		}
	}
}

// FuzzFleetManifest checks the manifest decoder on arbitrary bytes: it
// never panics, a refusal is an error with no districts, and an
// accepted manifest is whole (at least one district, each with a
// profile and the daemon defaults filled in). The decoder builds
// nothing, so a refused manifest cannot have started a deployment.
func FuzzFleetManifest(f *testing.F) {
	for _, seed := range []string{
		`{"districts": [{"id": "north", "profile": "n.gob", "net": "test", "iot": 30, "seed": 1}]}`,
		`{"districts": [{"id": "a", "profile": "a.gob"}, {"id": "b"}]}`,
		`{"districts": [{"profile": "p", "iot": -1, "seed": -5, "extra": [1, {"x": null}]}]}`,
		`{"districts": null}`,
		`{"districts": [{"id": 7}]}`,
		`{}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		districts, err := parseFleetManifest(raw, manifestDefaults)
		if err != nil {
			if districts != nil {
				t.Fatalf("refused manifest returned %d districts", len(districts))
			}
			return
		}
		if len(districts) == 0 {
			t.Fatal("accepted a manifest with no districts")
		}
		for _, d := range districts {
			if d.Profile == "" || d.Net == "" || d.IoT == 0 || d.Seed == 0 {
				t.Fatalf("accepted district %+v is incomplete", d)
			}
		}
	})
}
