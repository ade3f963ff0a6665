package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/fusion"
	"github.com/aquascale/aquascale/internal/weather"
)

// TestServedFastPathMatchesUncompiled pins the parity guarantee from the
// oracle side: a served result (compiled profile, then fusion) must be
// bit-identical to the pointer model bank's Profile.PredictProba run
// through the same fusion engine on the same observation.
func TestServedFastPathMatchesUncompiled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	req := ObserveRequest{
		Features:    testFeatures(s.System(), 7),
		FrozenNodes: []int{1, 3},
		Seed:        42,
	}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitResult(t, j)

	obs, _, _, err := s.buildObservation(req)
	if err != nil {
		t.Fatalf("buildObservation: %v", err)
	}
	proba, err := s.System().Profile().PredictProba(obs.Features)
	if err != nil {
		t.Fatalf("Profile.PredictProba: %v", err)
	}
	// core.NewSystem's default fusion: the paper's freeze model.
	engine := fusion.NewEngine(fusion.Config{Freeze: weather.DefaultFreezeModel})
	want, _, err := engine.Infer(proba, obs.Frozen, obs.Cliques)
	if err != nil {
		t.Fatalf("fusion: %v", err)
	}
	for v := range want.Proba {
		if math.Float64bits(got.Proba[v]) != math.Float64bits(want.Proba[v]) {
			t.Fatalf("proba[%d]: served %v != oracle %v", v, got.Proba[v], want.Proba[v])
		}
	}
}

// TestReadingsIngestion pins the absolute-readings request path: the
// conversion against the memoized quiescent baseline is deferred to the
// job's worker, the end-to-end
// result matches offline Localize on the subtracted deltas bit-for-bit,
// and readings/features exclusivity is validated at submit time.
func TestReadingsIngestion(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	sys := s.System()
	want := sys.Factory().SensorCount()

	hour := 8
	base, err := sys.QuiescentBaseline(hour)
	if err != nil {
		t.Fatalf("QuiescentBaseline: %v", err)
	}
	deltas := testFeatures(sys, 3)
	readings := make([]float64, want)
	for i := range readings {
		readings[i] = base[i] + deltas[i]
	}

	obs, rdgs, gotHour, err := s.buildObservation(ObserveRequest{Readings: readings, PatternHour: &hour})
	if err != nil {
		t.Fatalf("buildObservation(readings): %v", err)
	}
	if obs.Features != nil {
		t.Fatal("readings resolved at submit time, want deferred to the worker")
	}
	if len(rdgs) != want || gotHour != hour {
		t.Fatalf("got %d readings for hour %d, want %d for %d", len(rdgs), gotHour, want, hour)
	}

	// End to end: a served readings request matches offline Localize on
	// the subtracted deltas bit-for-bit.
	j, err := s.Submit(ObserveRequest{Readings: readings, PatternHour: &hour, Seed: 9})
	if err != nil {
		t.Fatalf("Submit(readings): %v", err)
	}
	got := waitResult(t, j)
	exp := make([]float64, want)
	for i := range exp {
		exp[i] = readings[i] - base[i]
	}
	pred, _, err := sys.Localize(core.Observation{Features: exp})
	if err != nil {
		t.Fatalf("offline Localize: %v", err)
	}
	for v := range pred.Proba {
		if math.Float64bits(got.Proba[v]) != math.Float64bits(pred.Proba[v]) {
			t.Fatalf("proba[%d]: served %v != offline %v", v, got.Proba[v], pred.Proba[v])
		}
	}

	// Unset PatternHour falls back to the profile's training base hour.
	if _, _, _, err := s.buildObservation(ObserveRequest{Readings: readings}); err != nil {
		t.Fatalf("buildObservation(readings, no hour): %v", err)
	}

	var re *RequestError
	if _, _, _, err := s.buildObservation(ObserveRequest{Readings: readings, Features: deltas}); !errors.As(err, &re) {
		t.Fatalf("features+readings: err = %v, want RequestError", err)
	}
	if _, _, _, err := s.buildObservation(ObserveRequest{Readings: readings[:1]}); !errors.As(err, &re) {
		t.Fatalf("short readings: err = %v, want RequestError", err)
	}
}

// TestEvictedJobGone410 pins the eviction-ambiguity fix: polling an
// evicted job answers 410 Gone with a machine-readable "evicted" code,
// distinct from a never-submitted id's 404.
func TestEvictedJobGone410(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueSize: 16, ResultCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	feats := testFeatures(s.System(), 13)

	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(ObserveRequest{Features: feats, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitResult(t, j)
		ids = append(ids, j.ID())
	}

	// Filled past ResultCap=2: the two oldest results are gone.
	if j, evicted := s.LookupState(ids[0]); j != nil || !evicted {
		t.Fatalf("LookupState(evicted) = (%v, %v), want (nil, true)", j, evicted)
	}
	if j, evicted := s.LookupState(ids[3]); j == nil || evicted {
		t.Fatalf("LookupState(live) = (%v, %v), want (job, false)", j, evicted)
	}
	if j, evicted := s.LookupState("j-never-was"); j != nil || evicted {
		t.Fatalf("LookupState(unknown) = (%v, %v), want (nil, false)", j, evicted)
	}

	r, err := ts.Client().Get(ts.URL + "/v1/localize/" + ids[0])
	if err != nil {
		t.Fatalf("GET evicted: %v", err)
	}
	if r.StatusCode != http.StatusGone {
		t.Fatalf("evicted poll status = %d, want 410", r.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		t.Fatalf("decode 410 body: %v", err)
	}
	r.Body.Close()
	if body["code"] != "evicted" || body["error"] == "" {
		t.Fatalf("410 body = %v, want code=evicted and an error message", body)
	}

	if r, _ := ts.Client().Get(ts.URL + "/v1/localize/j-never-was"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown poll status = %d, want 404", r.StatusCode)
	}
}

// TestTombstoneAging pins the bound: tombstones past TombstoneLimit age
// out oldest-first and revert to 404.
func TestTombstoneAging(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueSize: 16, ResultCap: 1, TombstoneLimit: 2})
	feats := testFeatures(s.System(), 13)

	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit(ObserveRequest{Features: feats, Seed: int64(i + 1)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitResult(t, j)
		ids = append(ids, j.ID())
	}
	// ResultCap=1 evicted ids[0..3]; TombstoneLimit=2 keeps only the two
	// newest tombstones (ids[2], ids[3]).
	if _, evicted := s.LookupState(ids[0]); evicted {
		t.Fatal("oldest tombstone did not age out")
	}
	if _, evicted := s.LookupState(ids[3]); !evicted {
		t.Fatal("recent eviction lost its tombstone")
	}
}

// TestRetryAfterDynamic pins the 429 backoff hint: once jobs have
// completed, Retry-After is derived from queue depth and the observed
// per-job service time, stays a positive integer, and respects the
// configured cap.
func TestRetryAfterDynamic(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:        1,
		QueueSize:      2,
		RequestTimeout: 30 * time.Second,
		RetryAfter:     time.Second,
		RetryAfterMax:  10 * time.Second,
		Faults:         faults.Config{RequestSlow: 1, RequestDelay: 400 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	feats := testFeatures(s.System(), 13)

	// Cold server: falls back to the configured hint.
	if got := s.retryAfterSeconds(); got != 1 {
		t.Fatalf("cold retryAfterSeconds = %d, want 1", got)
	}

	// Seed the EWMA as if jobs were taking ~3s of worker time each. With
	// a full 2-deep queue + 1 running + the refused job, the estimate is
	// 4 × 3s / 1 worker = 12s, clamped to the 10s cap.
	s.observeService(3 * time.Second)

	var header string
	for i := 0; i < 8; i++ {
		resp := postObserve(t, ts, ObserveRequest{Features: feats, Seed: int64(i + 1)})
		if resp.StatusCode == http.StatusTooManyRequests {
			header = resp.Header.Get("Retry-After")
			resp.Body.Close()
			break
		}
		resp.Body.Close()
	}
	if header == "" {
		t.Fatal("never saw a 429 with Retry-After")
	}
	secs, err := strconv.Atoi(header)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", header, err)
	}
	if secs < 2 {
		t.Fatalf("Retry-After = %d, want ≥ 2 (load-derived, not the 1s fallback)", secs)
	}
	if secs > 10 {
		t.Fatalf("Retry-After = %d exceeds the 10s cap", secs)
	}

	// Even an absurd service time stays clamped.
	s.observeService(20 * time.Minute)
	s.observeService(20 * time.Minute)
	if got := s.retryAfterSeconds(); got < 1 || got > 10 {
		t.Fatalf("clamped retryAfterSeconds = %d, want within [1, 10]", got)
	}
}

// TestSwapProfileRecompiles pins the hot-swap invariant end to end: a
// swap installs the new profile compiled, counts as one swap, and keeps
// serving results bit-identical to offline Localize.
func TestSwapProfileRecompiles(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	sys := s.System()
	var buf bytes.Buffer
	if err := testbed.profile.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	p, err := core.LoadProfile(&buf)
	if err != nil {
		t.Fatalf("LoadProfile: %v", err)
	}
	if err := s.SwapProfile(p); err != nil {
		t.Fatalf("SwapProfile: %v", err)
	}
	if sys.Profile() != p || s.Status().ProfileSwaps != 1 {
		t.Fatalf("swap not installed: live profile swapped = %v, swaps = %d", sys.Profile() == p, s.Status().ProfileSwaps)
	}
	feats := testFeatures(sys, 11)
	j, err := s.Submit(ObserveRequest{Features: feats, Seed: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitResult(t, j)
	want, _, err := sys.Localize(core.Observation{Features: feats})
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	for v := range want.Proba {
		if math.Float64bits(got.Proba[v]) != math.Float64bits(want.Proba[v]) {
			t.Fatalf("proba[%d]: served %v != offline %v after swap", v, got.Proba[v], want.Proba[v])
		}
	}
}
