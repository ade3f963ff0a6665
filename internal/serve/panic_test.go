package serve

import (
	"bytes"
	"context"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/mlearn"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// panicClassifier fits like any classifier and panics on every
// prediction: a stand-in for a bug in a registered technique.
type panicClassifier struct{}

func (panicClassifier) Fit([][]float64, []int) error { return nil }

func (panicClassifier) PredictProba([]float64) float64 { panic("panicClassifier predicts") }

// lockedBuffer is a bytes.Buffer safe for the logger's concurrent writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestJobPanicIsContained pins the per-job panic boundary: a district
// whose classifier panics fails that job alone with HTTP 500
// {"code":"internal"}, logs and traces the stack, counts it in
// serve_jobs_panicked_total, and its single worker goes on to run the
// next job, while the sibling district keeps serving.
func TestJobPanicIsContained(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	mlearn.Register("test-panics", func(int64) mlearn.Classifier { return panicClassifier{} })

	east := newTestSystem(t)
	if err := east.Train(20, core.ProfileConfig{Technique: "test-panics", Seed: 1}, rand.New(rand.NewSource(2))); err != nil {
		t.Fatalf("train the panicking profile: %v", err)
	}
	var logs lockedBuffer
	// Two workers across two districts: east has exactly one.
	f, err := NewFleet([]District{
		{ID: "east", Sys: east},
		{ID: "west", Sys: newGridSystem(t)},
	}, Config{Workers: 2, Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = f.Shutdown(ctx)
	})
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	eastFeats := testFeatures(east, 5)
	westFeats := testFeatures(f.District("west").System(), 6)
	var jobs []string
	for i := 0; i < 2; i++ {
		resp := postDistrictObserve(t, ts, "east", ObserveRequest{Features: eastFeats, Seed: int64(i), Wait: true})
		status := resp.StatusCode
		jr := decodeJob(t, resp)
		if status != http.StatusInternalServerError || jr.Code != "internal" || jr.State != JobFailed {
			t.Fatalf("east job %d: status %d, code %q, state %v; want 500, internal, failed", i, status, jr.Code, jr.State)
		}
		if strings.Contains(jr.Error, "goroutine") {
			t.Errorf("east job %d: the stack leaked into the response: %q", i, jr.Error)
		}
		jobs = append(jobs, jr.Job)

		resp = postDistrictObserve(t, ts, "west", ObserveRequest{Features: westFeats, Seed: int64(i), Wait: true})
		status = resp.StatusCode
		if jr := decodeJob(t, resp); status != http.StatusOK || jr.State != JobDone {
			t.Fatalf("west job %d beside a panicking district: status %d, state %v, error %q", i, status, jr.State, jr.Error)
		}
	}

	panicked := telemetry.WithLabel("serve_jobs_panicked_total", "district", "east")
	failed := telemetry.WithLabel("serve_jobs_failed_total", "district", "east")
	if got := reg.Counter(panicked).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", panicked, got)
	}
	if got := reg.Counter(failed).Value(); got != 2 {
		t.Errorf("%s = %d, want 2 (each panicking job fails once)", failed, got)
	}
	if got := reg.Counter(telemetry.WithLabel("serve_jobs_panicked_total", "district", "west")).Value(); got != 0 {
		t.Errorf("west counted %d panics, want 0", got)
	}

	for _, id := range jobs {
		snap := f.District("east").Recorder().Find(id)
		if snap == nil {
			t.Fatalf("failed job %s has no captured trace", id)
		}
		stack := false
		for _, ev := range snap.Events {
			if ev.Stage == string(telemetry.StageError) && strings.Contains(ev.Detail, "panicClassifier predicts") &&
				strings.Contains(ev.Detail, "goroutine") {
				stack = true
			}
		}
		if !stack {
			t.Errorf("trace of job %s holds no panic stack: %+v", id, snap.Events)
		}
	}
	if out := logs.String(); strings.Count(out, `msg="job panicked"`) != 2 || !strings.Contains(out, "stack=") {
		t.Errorf("log lacks the two panics with their stacks:\n%s", out)
	}
}
