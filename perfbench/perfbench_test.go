package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestMetricNames(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric %q: name outside [A-Za-z0-9_.-]", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %q: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload %q: bad or reused name", w.Name)
		}
		seen[w.Name] = true
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %q has no runner", w.Name)
		}
	}
	if len(runners) != len(workloads) {
		t.Errorf("%d runners for %d workloads", len(runners), len(workloads))
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", got, want)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Workloads, workloads) {
		t.Errorf("workloads differ from the benchmark's:\n got %v\nwant %v", b.Workloads, workloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the benchmark's:\n got %v\nwant %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the benchmark's:\n got %v\nwant %v", b.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(b.Paths, []string{"perfbench"}) || len(b.Command) == 0 || !strings.HasPrefix(b.Command[len(b.Command)-1], "perfbench/") {
		t.Errorf("command %v / paths %v do not point at the benchmark", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1,60]", b.RunSeconds)
	}
	maxBound := 0.0
	for _, d := range b.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Bound > maxBound {
			maxBound = d.Bound
		}
	}
	for _, d := range b.EndToEnd {
		if d.Name == "setup_s" && (d.Unit != "s" || d.Better != "lower" || d.Bound != maxBound) {
			t.Errorf("setup_s must be seconds, lower-is-better, with the largest bound: %+v", d)
		}
	}
}

// TestSmoke runs every workload at a tiny scale, untraced and traced,
// and checks that it passes its correctness gates and prints exactly the
// declared metrics on its last line.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.Name + map[bool]string{false: "/end-to-end", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				var out bytes.Buffer
				cfg := runConfig{workload: w.Name, seed: 7, seconds: 0.5, trace: trace, tiny: true}
				if err := execute(cfg, t.TempDir(), &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool                   `json:"correct"`
					Attempted int64                  `json:"attempted"`
					Failed    int64                  `json:"failed"`
					Metrics   map[string]metricValue `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
						t.Errorf("metric %s missing or with unit %q", d.Name, v.Unit)
					}
				}
			})
		}
	}
}
