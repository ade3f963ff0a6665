package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/social"
	"github.com/aquascale/aquascale/internal/telemetry"
	"github.com/aquascale/aquascale/internal/weather"
)

// ObserveRequest is the POST /v1/observe body: one live observation for
// the served network.
type ObserveRequest struct {
	// Features are the IoT sensor reading deltas, one per placed sensor
	// in placement order. The length must match the served sensor set.
	// Either Features or Readings is required, never both.
	Features []float64 `json:"features"`

	// Readings are absolute sensor readings (same order as Features).
	// The server subtracts the memoized quiescent baseline for
	// PatternHour to form the feature deltas — no hydraulic solve on the
	// request path after the first hit per hour.
	Readings []float64 `json:"readings,omitempty"`

	// PatternHour is the hour of the demand-pattern day the Readings
	// were taken at (wrapped into [0,24)). Only meaningful with
	// Readings; unset means the profile's training base hour.
	PatternHour *int `json:"pattern_hour,omitempty"`

	// TemperatureF is the current air temperature (°F). When set and not
	// freezing (per weather.Freezing), any FrozenNodes evidence is
	// discarded — frost bursts need frost. Unset means "trust
	// FrozenNodes as-is".
	TemperatureF *float64 `json:"temperature_f,omitempty"`

	// FrozenNodes lists node indices detected frozen by the
	// pressure-pattern analyzer (weather evidence). Optional.
	FrozenNodes []int `json:"frozen_nodes,omitempty"`

	// Reports are geotagged human reports ("water on the street") for
	// clique extraction. Optional.
	Reports []ReportIn `json:"reports,omitempty"`

	// GammaM overrides the server's clique coarseness γ (meters) for
	// this request. Zero means the server default.
	GammaM float64 `json:"gamma_m,omitempty"`

	// Seed isolates this request's rng stream (consumed only by fault
	// injection — localization itself is deterministic). Zero means a
	// server-assigned per-job seed.
	Seed int64 `json:"seed,omitempty"`

	// Wait makes the POST synchronous: the response is the finished
	// job's result (or error) instead of 202 + job id.
	Wait bool `json:"wait,omitempty"`

	// TraceParent is the inbound W3C trace-context header
	// ("00-<trace-id>-<parent-id>-<flags>"). The HTTP front end fills it
	// from the traceparent request header; programmatic Submit callers may
	// set it directly. The trace id is adopted and a set sampled flag
	// forces flight-recorder capture. Never serialized in request bodies.
	TraceParent string `json:"-"`
}

// ReportIn is one human report in an ObserveRequest.
type ReportIn struct {
	// X, Y is the report's geotag in network plan coordinates (m).
	X float64 `json:"x"`
	Y float64 `json:"y"`

	// Slot is the IoT sampling interval the report arrived in.
	Slot int `json:"slot"`
}

// RequestError is a client-side validation failure (HTTP 400).
type RequestError struct {
	Msg string
}

func (e *RequestError) Error() string { return "serve: bad request: " + e.Msg }

func badRequest(format string, args ...any) error {
	return &RequestError{Msg: fmt.Sprintf(format, args...)}
}

// buildObservation validates req against the served network and converts
// it to the exact core.Observation the offline pipeline uses, so served
// results are bit-identical to System.Localize on the same evidence.
// Readings requests are validated here but their readings→features
// conversion is deferred to the worker (returned as readings + pattern
// hour), which resolves the quiescent baseline under the job's own
// deadline and trace; obs.Features stays nil for them until then.
func (s *Server) buildObservation(req ObserveRequest) (core.Observation, []float64, int, error) {
	want := s.sys.Factory().SensorCount()
	var readings []float64
	hour := 0
	if len(req.Readings) > 0 {
		if len(req.Features) > 0 {
			return core.Observation{}, nil, 0, badRequest("set features or readings, not both")
		}
		if len(req.Readings) != want {
			return core.Observation{}, nil, 0, badRequest("got %d readings, served sensor set has %d", len(req.Readings), want)
		}
		hour = int(s.sys.Factory().BaseTime() / time.Hour)
		if req.PatternHour != nil {
			hour = *req.PatternHour
		}
		readings = req.Readings
	} else if len(req.Features) != want {
		return core.Observation{}, nil, 0, badRequest("got %d features, served sensor set has %d", len(req.Features), want)
	}
	obs := core.Observation{Features: req.Features}

	net := s.sys.Network()
	freezing := req.TemperatureF == nil || weather.Freezing(*req.TemperatureF)
	if len(req.FrozenNodes) > 0 && freezing {
		frozen := make([]bool, len(net.Nodes))
		for _, v := range req.FrozenNodes {
			if v < 0 || v >= len(net.Nodes) {
				return core.Observation{}, nil, 0, badRequest("frozen node %d outside [0, %d)", v, len(net.Nodes))
			}
			frozen[v] = true
		}
		obs.Frozen = frozen
	}

	if len(req.Reports) > 0 {
		gamma := req.GammaM
		if gamma <= 0 {
			gamma = s.cfg.GammaM
		}
		pe := s.sys.Social().FalsePositiveRate
		if pe <= 0 {
			pe = 0.3
		}
		reports := make([]social.Report, len(req.Reports))
		for i, r := range req.Reports {
			reports[i] = social.Report{X: r.X, Y: r.Y, Slot: r.Slot}
		}
		obs.Cliques = social.BuildCliques(net, reports, gamma, pe)
	}
	return obs, readings, hour, nil
}

// jobResponse is the wire shape for job submission and polling. On a
// non-2xx answer Code carries the same machine-readable class the bare
// error envelope would, so every error body decodes uniformly as
// {"code": ..., "error": ...} whether or not job fields ride along.
type jobResponse struct {
	Job    string   `json:"job"`
	State  JobState `json:"state"`
	Result *Result  `json:"result,omitempty"`
	Error  string   `json:"error,omitempty"`
	Code   string   `json:"code,omitempty"`
}

// Handler returns the service's HTTP mux:
//
//	POST /v1/observe        submit an observation (202 + job id, or the
//	                        result directly with "wait": true)
//	GET  /v1/localize/{job} poll a job
//	GET  /v1/trace/{job}    replay a job's stage timeline (live trace or
//	                        flight-recorder entry)
//	GET  /v1/status         service health snapshot
//	POST /v1/profile        hot-swap the profile (gob body, as written by
//	                        Profile.Save / aquatrain -out)
//	GET  /debug/requests    the flight recorder: recently captured traces,
//	                        newest first (?n= bounds the count)
//	/metrics, /metrics.json, /debug/...  telemetry (shared registry)
//
// When a Logger is configured the returned handler writes one structured
// access-log line per request, correlated by trace id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/observe", s.handleObserve)
	mux.HandleFunc("GET /v1/localize/{job}", s.handleLocalize)
	mux.HandleFunc("GET /v1/trace/{job}", s.handleTrace)
	mux.HandleFunc("GET /v1/status", s.handleStatus)
	mux.HandleFunc("POST /v1/profile", s.handleProfile)
	// Exact pattern wins over the telemetry "/debug/" subtree below
	// (Go 1.22 ServeMux precedence), so both coexist.
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	if h := telemetry.Default().Handler(); h != nil {
		mux.Handle("/metrics", h)
		mux.Handle("/metrics.json", h)
		mux.Handle("/debug/", h)
	}
	return accessLog(s.log, mux)
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// accessLog wraps a handler with one structured log line per request
// (shared by Server.Handler and Fleet.Handler). With a nil logger it
// returns the handler unwrapped — zero overhead.
func accessLog(log *slog.Logger, next http.Handler) http.Handler {
	if log == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		log.Info("request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.status),
			slog.Float64("latency_seconds", time.Since(start).Seconds()),
			slog.String("trace_id", rec.Header().Get("X-Trace-Id")),
		)
	})
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	req, err := readObserveRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if waitFlag(r.URL.RawQuery) {
		req.Wait = true
	}
	req.TraceParent = r.Header.Get("traceparent")
	j, err := s.Submit(req)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	if tid := j.TraceID(); tid != "" {
		w.Header().Set("X-Trace-Id", tid)
	}
	if !req.Wait {
		w.Header().Set("Location", "/v1/localize/"+j.ID())
		writeJobResponse(w, http.StatusAccepted, &jobResponse{Job: j.ID(), State: JobQueued})
		return
	}
	select {
	case <-j.Done():
	case <-r.Context().Done():
		// Client went away; the job still runs and stays pollable.
		return
	}
	s.writeJob(w, j)
}

// waitFlag reports whether the first "wait" value in a raw query is "1",
// exactly as r.URL.Query().Get("wait") == "1" would, without building a
// url.Values map per request: pairs split on '&', a pair holding ';' is
// skipped, and so is one whose key or value fails to unescape.
func waitFlag(rawQuery string) bool {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		key, err := url.QueryUnescape(key)
		if err != nil || key != "wait" {
			continue
		}
		value, err = url.QueryUnescape(value)
		if err != nil {
			continue
		}
		return value == "1"
	}
	return false
}

func (s *Server) handleLocalize(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("job")
	j, evicted := s.LookupState(id)
	if j == nil {
		if evicted {
			writeErrorCode(w, http.StatusGone, "evicted", fmt.Errorf("serve: job %q: %w", id, ErrEvicted))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", id))
		return
	}
	s.writeJob(w, j)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// handleTrace replays a job's stage timeline: a still-live job answers
// with its in-flight trace snapshot, a finished one with its
// flight-recorder entry. 404 covers unknown jobs, jobs whose trace was
// not captured (sampled out), and tracing disabled outright.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("job")
	if j := s.Lookup(id); j != nil && j.trace != nil {
		if state, _, _ := j.Status(); state == JobQueued || state == JobRunning {
			writeJSON(w, http.StatusOK, j.Trace())
			return
		}
	}
	if snap := s.recorder.Find(id); snap != nil {
		writeJSON(w, http.StatusOK, snap)
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("serve: no trace for job %q (unknown, sampled out, or tracing disabled)", id))
}

// handleDebugRequests dumps the flight recorder, newest first. ?n=K
// bounds the count (default: everything retained).
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: tracing disabled"))
		return
	}
	n := s.recorder.Cap()
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad n %q", q))
			return
		}
		n = v
	}
	traces := s.recorder.Recent(n)
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.recorder.Cap(),
		"count":    len(traces),
		"traces":   traces,
	})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	p, err := core.LoadProfile(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.SwapProfile(p); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{
		"status":    "profile swapped",
		"technique": p.Technique().String(),
	})
}

// writeJob renders a job's current state, mapping failure causes to
// status codes: timeouts 504, drain 503, injected or internal errors 500.
func (s *Server) writeJob(w http.ResponseWriter, j *Job) {
	state, res, err := j.Status()
	resp := jobResponse{Job: j.ID(), State: state, Result: res}
	code := http.StatusOK
	if err != nil {
		resp.Error = err.Error()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			code = http.StatusGatewayTimeout
		case errors.Is(err, ErrDraining):
			code = http.StatusServiceUnavailable
		case errors.Is(err, faults.ErrInjectedFailure):
			code = http.StatusInternalServerError
		default:
			code = http.StatusInternalServerError
		}
		resp.Code = errorCodeFor(code)
	}
	writeJobResponse(w, code, &resp)
}

// writeSubmitError maps Submit failures onto the documented status codes:
// queue full 429 + Retry-After, draining 503, invalid evidence 400. The
// Retry-After hint is load-derived (see retryAfterSeconds). Refusals
// carrying a SubmitError still answer X-Trace-Id, so a client-forced
// traceparent stays correlatable even when the request never enqueued.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	var se *SubmitError
	if errors.As(err, &se) && se.TraceID != "" {
		w.Header().Set("X-Trace-Id", se.TraceID)
	}
	var re *RequestError
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.As(err, &re):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// writeJSON encodes v before writing the status, so a value that cannot
// be encoded answers 500 with the error envelope rather than code with
// an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: encode response: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// errorEnvelope is the uniform non-2xx body shape: every error answer
// from the single-district and fleet handlers decodes as
// {"code": "<machine-readable class>", "error": "<human message>"}.
type errorEnvelope struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// errorCodeFor maps a status onto the envelope's default machine-readable
// code. Handlers that need to distinguish classes sharing a status (e.g.
// an evicted job vs. any other gone resource) pass an explicit code via
// writeErrorCode instead.
func errorCodeFor(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "gone"
	case http.StatusTooManyRequests:
		return "queue_full"
	case http.StatusServiceUnavailable:
		return "draining"
	case http.StatusGatewayTimeout:
		return "timeout"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeErrorCode(w, code, errorCodeFor(code), err)
}

// writeErrorCode is writeError with an explicit "code" field overriding
// the status-derived default.
func writeErrorCode(w http.ResponseWriter, code int, errCode string, err error) {
	writeJSON(w, code, errorEnvelope{Code: errCode, Error: err.Error()})
}
