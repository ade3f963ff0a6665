// Package serve is the online localization service behind the aquad
// daemon: a long-running HTTP/JSON front end over one trained
// core.System that ingests live observations (IoT reading deltas,
// temperature, human reports), runs Phase-II fusion concurrently across
// a bounded worker pool, and answers job polls and status queries.
//
// Concurrency model:
//
//   - One immutable System/Profile snapshot is shared by every worker.
//     The only mutable piece — the profile — sits behind an atomic
//     pointer in core.System, so a hot reload (Server.SwapProfile /
//     POST /v1/profile) is one pointer store; in-flight jobs finish on
//     the profile they started with.
//   - Jobs flow through one bounded channel. When it is full, Submit
//     refuses with ErrQueueFull (HTTP 429 + Retry-After) instead of
//     queueing unboundedly — latency stays flat under overload and the
//     process cannot OOM on a traffic spike.
//   - Every job carries its own rng (seeded per request), used only by
//     the fault injector's degradation draws. Localization itself is
//     deterministic: a served result is bit-identical to calling
//     System.Localize offline with the same observation.
//   - Shutdown drains: new submissions are refused, jobs already running
//     finish and stay retrievable, and jobs still queued fail with
//     ErrDraining (HTTP 503).
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aquascale/aquascale/internal/core"
	"github.com/aquascale/aquascale/internal/faults"
	"github.com/aquascale/aquascale/internal/telemetry"
)

// Config parameterizes a Server. The zero value serves with sensible
// defaults (NumCPU workers, a 1024-deep queue, 5s request timeout).
type Config struct {
	// Workers is the localization worker-pool size. Zero means
	// runtime.NumCPU().
	Workers int

	// QueueSize bounds the job queue; submissions beyond it are refused
	// with ErrQueueFull. Zero means 1024.
	QueueSize int

	// RequestTimeout bounds a job's total latency from enqueue: a job
	// still unfinished past it fails with context.DeadlineExceeded.
	// Zero means 5s.
	RequestTimeout time.Duration

	// RetryAfter is the backoff hint returned with queue-full refusals
	// before any job has completed (once jobs flow, the hint is computed
	// from the observed per-job service time; see retryAfterSeconds).
	// Zero means 1s.
	RetryAfter time.Duration

	// RetryAfterMax caps the computed Retry-After hint. Zero means 60s.
	RetryAfterMax time.Duration

	// GammaM is the default tweet-coarseness γ (meters) for clique
	// extraction when a request does not set its own. Zero means 30,
	// the paper's default.
	GammaM float64

	// ResultCap bounds how many finished jobs stay retrievable; the
	// oldest are evicted first. Zero means 4096.
	ResultCap int

	// TombstoneLimit bounds how many evicted job ids are remembered so
	// polls for them can answer 410 Gone instead of 404 (the tombstones
	// age out oldest-first). Zero means 4096.
	TombstoneLimit int

	// TraceSample is the head-based trace sampling fraction: that share
	// of requests (chosen by a deterministic hash of the trace id, never
	// by an rng draw) lands in the flight recorder even when nothing goes
	// wrong. Failed and slow requests are always captured regardless.
	// Zero means 1 (capture everything — the recorder is bounded, so
	// memory stays flat); negative disables head sampling.
	TraceSample float64

	// TraceSlowThreshold is the latency above which a request's trace is
	// always captured, whatever the sampling decision. Zero means 250ms.
	TraceSlowThreshold time.Duration

	// TraceBuffer is the flight-recorder capacity: how many completed
	// traces GET /debug/requests and GET /v1/trace/{job} can replay
	// without an external collector. Zero means 256; negative disables
	// per-request tracing entirely (jobs carry no trace, responses carry
	// no X-Trace-Id, and the hot path pays one nil check).
	TraceBuffer int

	// Logger receives structured request logs — one access line per HTTP
	// request plus job failure events, each correlated by trace id. Nil
	// disables logging. Build one with telemetry.NewLogger.
	Logger *slog.Logger

	// Faults enables deterministic request-level degradation (slow and
	// forced-failed localize jobs; see faults.Config.RequestSlow /
	// RequestFail). The zero value injects nothing.
	Faults faults.Config
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RetryAfterMax <= 0 {
		c.RetryAfterMax = 60 * time.Second
	}
	if c.GammaM <= 0 {
		c.GammaM = 30
	}
	if c.ResultCap <= 0 {
		c.ResultCap = 4096
	}
	if c.TombstoneLimit <= 0 {
		c.TombstoneLimit = 4096
	}
	if c.TraceSample == 0 {
		c.TraceSample = 1
	}
	if c.TraceSlowThreshold <= 0 {
		c.TraceSlowThreshold = 250 * time.Millisecond
	}
	if c.TraceBuffer == 0 {
		c.TraceBuffer = 256
	}
	return c
}

// ErrQueueFull is returned by Submit when the bounded job queue is at
// capacity — the backpressure signal (HTTP 429 + Retry-After).
var ErrQueueFull = fmt.Errorf("serve: job queue full")

// ErrDraining is returned when the server is shutting down: new
// submissions are refused and still-queued jobs fail with it (HTTP 503).
var ErrDraining = fmt.Errorf("serve: server draining")

// ErrEvicted marks a job id whose finished result was evicted from the
// bounded result window (HTTP 410 Gone) — distinct from an id that was
// never submitted (HTTP 404).
var ErrEvicted = fmt.Errorf("serve: job result evicted")

// SubmitError wraps a submission refusal together with the trace id
// minted for the rejected request, so error responses can still carry
// X-Trace-Id and the refusal is findable in the flight recorder. Unwrap
// exposes the cause, keeping errors.Is(err, ErrQueueFull/ErrDraining)
// and errors.As(&RequestError{}) working unchanged.
type SubmitError struct {
	Cause   error
	TraceID string
}

func (e *SubmitError) Error() string { return e.Cause.Error() }
func (e *SubmitError) Unwrap() error { return e.Cause }

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Result is one completed localization.
type Result struct {
	// LeakNodes are the node indices in the predicted leak set S.
	LeakNodes []int `json:"leak_nodes"`

	// LeakIDs are the same nodes by network ID.
	LeakIDs []string `json:"leak_ids"`

	// Proba is the full fused per-node leak belief — bit-identical to
	// the offline System.Localize prediction for the same observation.
	Proba []float64 `json:"proba"`

	// HumanAdded are the nodes forced into S by human-report cliques.
	HumanAdded []int `json:"human_added,omitempty"`

	// LatencySeconds is the job's enqueue-to-done latency.
	LatencySeconds float64 `json:"latency_seconds"`
}

// Job is one queued/running/finished localization request.
type Job struct {
	id       string
	obs      core.Observation
	seed     int64
	enqueued time.Time
	trace    *telemetry.Trace // nil when tracing is disabled

	// readings holds a Readings request's raw sensor values until its
	// worker resolves them against the memoized quiescent baseline for
	// pattern hour, under the job's own deadline and trace; nil for
	// Features requests.
	readings []float64
	hour     int

	mu     sync.Mutex
	state  JobState
	result *Result
	err    error
	done   chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// TraceID returns the job's trace id as 32 hex characters, or "" when
// tracing is disabled.
func (j *Job) TraceID() string {
	if j.trace == nil {
		return ""
	}
	return j.trace.ID().String()
}

// Trace returns a point-in-time snapshot of the job's trace (nil when
// tracing is disabled). Safe to call while the job is still running.
func (j *Job) Trace() *telemetry.TraceSnapshot { return j.trace.Snapshot() }

// Done returns a channel closed when the job finishes (either way).
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns the job's state and, once finished, its result or error.
func (j *Job) Status() (JobState, *Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.err
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

func (j *Job) complete(res *Result) {
	j.mu.Lock()
	j.state = JobDone
	j.result = res
	j.mu.Unlock()
	close(j.done)
}

func (j *Job) fail(err error) {
	j.mu.Lock()
	j.state = JobFailed
	j.err = err
	j.mu.Unlock()
	close(j.done)
}

// serveMetrics are the server's telemetry handles; all nil no-ops when
// telemetry is disabled at construction time.
type serveMetrics struct {
	submitted      *telemetry.Counter
	rejectedFull   *telemetry.Counter
	rejectedDrain  *telemetry.Counter
	jobsDone       *telemetry.Counter
	jobsFailed     *telemetry.Counter
	profileSwaps   *telemetry.Counter
	queueDepth     *telemetry.Gauge
	inflight       *telemetry.Gauge
	requestSeconds *telemetry.Histogram
	flatEvalSecs   *telemetry.Histogram
	traces         *telemetry.Counter
}

// bindServeMetrics registers the server's instruments. A non-empty
// district tags every name with a district label (telemetry.WithLabel),
// so fleet members export per-district series; a standalone server keeps
// the unlabeled names.
func bindServeMetrics(district string) serveMetrics {
	reg := telemetry.Default()
	name := func(n string) string { return telemetry.WithLabel(n, "district", district) }
	return serveMetrics{
		submitted:      reg.Counter(name("serve_jobs_submitted_total")),
		rejectedFull:   reg.Counter(name("serve_rejected_queue_full_total")),
		rejectedDrain:  reg.Counter(name("serve_rejected_draining_total")),
		jobsDone:       reg.Counter(name("serve_jobs_done_total")),
		jobsFailed:     reg.Counter(name("serve_jobs_failed_total")),
		profileSwaps:   reg.Counter(name("serve_profile_swaps_total")),
		queueDepth:     reg.Gauge(name("serve_queue_depth")),
		inflight:       reg.Gauge(name("serve_inflight_jobs")),
		requestSeconds: reg.Histogram(name("serve_request_seconds"), telemetry.ServingLatencyBuckets()),
		flatEvalSecs:   reg.Histogram(name("serve_flat_eval_seconds"), telemetry.FastPathLatencyBuckets()),
		traces:         reg.Counter(name("serve_traces_captured_total")),
	}
}

// Server is the online localization service. Create one with New, mount
// Handler on an HTTP server, and Shutdown to drain.
type Server struct {
	sys      *core.System
	cfg      Config
	inj      *faults.Injector // nil when request faults are disabled
	district string           // fleet district id; "" for a standalone server

	queue chan *Job
	wg    sync.WaitGroup // worker goroutines

	mu         sync.Mutex // guards draining transition, job map, eviction order
	jobs       map[string]*Job
	finished   []string // finished job ids in completion order (eviction queue)
	tombstones map[string]struct{}
	tombOrder  []string // tombstone ids in eviction order (aging queue)
	draining   bool

	drainOnce sync.Once
	seq       atomic.Int64
	running   atomic.Int64
	start     time.Time

	// ewmaServiceNs tracks the exponentially-weighted moving average
	// (α = 0.2) of per-job worker-occupancy time in nanoseconds, feeding
	// the Retry-After hint.
	ewmaServiceNs atomic.Int64

	// Per-server counters backing Status; the telemetry handles in met
	// mirror them onto the shared /metrics registry when telemetry is on.
	nSubmitted    atomic.Int64
	nDone         atomic.Int64
	nFailed       atomic.Int64
	nRejectedFull atomic.Int64
	nSwaps        atomic.Int64
	nTraces       atomic.Int64

	// recorder is the bounded flight recorder holding recently captured
	// request traces (nil when cfg.TraceBuffer < 0 disabled tracing).
	recorder *telemetry.Recorder
	log      *slog.Logger // nil disables structured logging

	met serveMetrics
}

// New builds a Server over a trained system and starts its worker pool.
// The system must already hold a profile (trained or loaded), which
// core.System keeps installed in compiled form.
func New(sys *core.System, cfg Config) (*Server, error) {
	return newServer(sys, cfg, "")
}

// newServer is the shared constructor behind New and NewFleet; a
// non-empty district labels the server's telemetry and Status.
func newServer(sys *core.System, cfg Config, district string) (*Server, error) {
	if sys == nil {
		return nil, fmt.Errorf("serve: nil system")
	}
	if sys.Profile() == nil {
		return nil, fmt.Errorf("serve: system has no profile (train or load one first)")
	}
	cfg = cfg.withDefaults()
	inj, err := faults.New(cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		sys:        sys,
		cfg:        cfg,
		inj:        inj,
		district:   district,
		queue:      make(chan *Job, cfg.QueueSize),
		jobs:       make(map[string]*Job),
		tombstones: make(map[string]struct{}),
		start:      time.Now(),
		log:        cfg.Logger,
		met:        bindServeMetrics(district),
	}
	if cfg.TraceBuffer > 0 {
		s.recorder = telemetry.NewRecorder(cfg.TraceBuffer)
	}
	s.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go s.worker()
	}
	return s, nil
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// System returns the served system.
func (s *Server) System() *core.System { return s.sys }

// District returns the fleet district id this server belongs to, or ""
// for a standalone server.
func (s *Server) District() string { return s.district }

// Submit validates a request, enqueues its localization job and returns
// it. It never blocks: a full queue returns ErrQueueFull and a draining
// server ErrDraining; invalid evidence returns a *RequestError.
func (s *Server) Submit(req ObserveRequest) (*Job, error) {
	tr := s.newTrace(req.TraceParent)
	obs, readings, hour, err := s.buildObservation(req)
	if err != nil {
		return nil, s.rejectSubmit(tr, err)
	}
	n := s.seq.Add(1)
	id := fmt.Sprintf("j-%08d", n)
	tr.SetJob(id)
	seed := req.Seed
	if seed == 0 {
		// Distinct per-job default so fault draws are isolated between
		// requests even when clients never set a seed. The Add(1) return
		// value is this submission's alone — re-reading the counter here
		// could hand two concurrent submissions the same stream.
		seed = n
	}
	j := &Job{
		id:       id,
		obs:      obs,
		seed:     seed,
		readings: readings,
		hour:     hour,
		enqueued: time.Now(),
		trace:    tr,
		state:    JobQueued,
		done:     make(chan struct{}),
	}
	tr.Event(telemetry.StageEnqueue)

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.rejectedDrain.Inc()
		return nil, s.rejectSubmit(tr, ErrDraining)
	}
	select {
	case s.queue <- j:
		s.jobs[id] = j
	default:
		s.mu.Unlock()
		s.nRejectedFull.Add(1)
		s.met.rejectedFull.Inc()
		return nil, s.rejectSubmit(tr, ErrQueueFull)
	}
	s.mu.Unlock()
	s.nSubmitted.Add(1)
	s.met.submitted.Inc()
	s.met.queueDepth.Set(float64(len(s.queue)))
	return j, nil
}

// rejectSubmit finalizes a refused submission's trace: the refusal is a
// failure, so it is always captured in the flight recorder (mirroring
// captureTrace's error contract) and the trace id is surfaced on the
// returned SubmitError so the HTTP layer can still answer X-Trace-Id.
// With tracing disabled the cause passes through untouched.
func (s *Server) rejectSubmit(tr *telemetry.Trace, cause error) error {
	if tr == nil {
		return cause
	}
	tr.Fail(cause)
	tr.Event(telemetry.StageDone)
	s.recorder.Put(tr.Snapshot())
	s.nTraces.Add(1)
	s.met.traces.Inc()
	return &SubmitError{Cause: cause, TraceID: tr.ID().String()}
}

// newTrace starts a per-request trace, honoring an inbound W3C
// traceparent header (its trace id is adopted; its sampled flag forces
// capture) and minting a fresh id otherwise. Returns nil — the no-op
// trace — when tracing is disabled, so untraced requests pay exactly
// one nil check per stage hook.
func (s *Server) newTrace(traceParent string) *telemetry.Trace {
	if s.recorder == nil {
		return nil
	}
	var id telemetry.TraceID
	var forced bool
	if traceParent != "" {
		if pid, sampled, ok := telemetry.ParseTraceParent(traceParent); ok {
			id, forced = pid, sampled
		}
	}
	tr := telemetry.NewTrace(id) // zero id mints a fresh one
	if forced {
		tr.Force()
	}
	return tr
}

// Lookup returns a submitted job by id (nil when unknown or evicted).
// Use LookupState to distinguish the two.
func (s *Server) Lookup(id string) *Job {
	j, _ := s.LookupState(id)
	return j
}

// LookupState returns the job by id plus an eviction marker: (job, false)
// for live jobs, (nil, true) when the id's finished result was evicted
// from the bounded result window, and (nil, false) when the id was never
// submitted (or its tombstone itself aged out of TombstoneLimit).
func (s *Server) LookupState(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, false
	}
	_, evicted := s.tombstones[id]
	return nil, evicted
}

// worker drains the queue. After Shutdown closes the queue, jobs still
// buffered in it are failed with ErrDraining instead of run — only the
// job a worker already held (in-flight) completes normally.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.met.queueDepth.Set(float64(len(s.queue)))
		if s.isDraining() {
			s.finishJob(j, nil, ErrDraining)
			continue
		}
		s.run(j)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// run executes one job under the request deadline.
func (s *Server) run(j *Job) {
	j.setRunning()
	j.trace.EventValue(telemetry.StageQueueWait, time.Since(j.enqueued).Seconds())
	s.running.Add(1)
	s.met.inflight.Set(float64(s.running.Load()))
	started := time.Now()
	defer func() {
		// Worker-occupancy time (not queue wait — that would feed the
		// backlog back into the estimate) drives the Retry-After EWMA.
		s.observeService(time.Since(started))
		s.running.Add(-1)
		s.met.inflight.Set(float64(s.running.Load()))
	}()

	// The deadline covers queue wait too: a job that sat queued past the
	// request timeout fails instead of serving a stale answer.
	ctx, cancel := context.WithDeadline(context.Background(), j.enqueued.Add(s.cfg.RequestTimeout))
	defer cancel()
	ctx = telemetry.ContextWithTrace(ctx, j.trace)

	// Per-request rng isolation: the only stochastic element of serving
	// is fault injection, drawn from this job's own stream.
	rng := rand.New(rand.NewSource(j.seed))
	delay, injErr := s.inj.RequestPlan(rng)
	if delay > 0 {
		j.trace.EventValue(telemetry.StageFaultDelay, delay.Seconds())
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			s.finishJob(j, nil, ctx.Err())
			return
		}
	}
	if injErr != nil {
		j.trace.Event(telemetry.StageFaultFail)
		s.finishJob(j, nil, injErr)
		return
	}
	if err := ctx.Err(); err != nil {
		s.finishJob(j, nil, err)
		return
	}
	if j.readings != nil {
		base, err := s.sys.QuiescentBaselineContext(ctx, j.hour)
		if err != nil {
			s.finishJob(j, nil, fmt.Errorf("serve: quiescent baseline: %w", err))
			return
		}
		j.obs.Features = make([]float64, len(j.readings))
		for i, r := range j.readings {
			j.obs.Features[i] = r - base[i]
		}
	}

	evalStart := time.Now()
	pred, added, err := s.sys.LocalizeContext(ctx, j.obs)
	s.met.flatEvalSecs.ObserveDuration(time.Since(evalStart))
	if err != nil {
		s.finishJob(j, nil, err)
		return
	}
	net := s.sys.Network()
	leakNodes := pred.LeakNodes()
	ids := make([]string, len(leakNodes))
	for i, v := range leakNodes {
		ids[i] = net.Nodes[v].ID
	}
	s.finishJob(j, &Result{
		LeakNodes:      leakNodes,
		LeakIDs:        ids,
		Proba:          pred.Proba,
		HumanAdded:     added,
		LatencySeconds: time.Since(j.enqueued).Seconds(),
	}, nil)
}

// finishJob records a job's metrics and trace, completes or fails it,
// and evicts the oldest finished jobs beyond ResultCap. The counters and
// the flight-recorder entry land before the job's Done channel closes,
// so a caller woken by Done (a waiting HTTP request, Status, a trace
// fetch) already sees them.
func (s *Server) finishJob(j *Job, res *Result, err error) {
	latency := time.Since(j.enqueued)
	if err != nil {
		s.nFailed.Add(1)
		s.met.jobsFailed.Inc()
		if s.log != nil {
			s.log.Error("job failed",
				telemetry.TraceAttr(j.trace.ID()),
				slog.String("job", j.id),
				slog.Float64("latency_seconds", latency.Seconds()),
				slog.String("error", err.Error()))
		}
	} else {
		s.nDone.Add(1)
		s.met.jobsDone.Inc()
	}
	s.met.requestSeconds.ObserveDuration(latency)
	s.captureTrace(j, latency, err)
	if err != nil {
		j.fail(err)
	} else {
		j.complete(res)
	}

	s.mu.Lock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.ResultCap {
		id := s.finished[0]
		delete(s.jobs, id)
		s.finished = s.finished[1:]
		// Leave a tombstone so polls for the evicted id get 410 Gone
		// instead of an indistinguishable 404.
		s.tombstones[id] = struct{}{}
		s.tombOrder = append(s.tombOrder, id)
	}
	for len(s.tombOrder) > s.cfg.TombstoneLimit {
		delete(s.tombstones, s.tombOrder[0])
		s.tombOrder = s.tombOrder[1:]
	}
	s.mu.Unlock()
}

// captureTrace decides whether a finished job's trace lands in the
// flight recorder: failed, slow (≥ TraceSlowThreshold) and
// traceparent-forced requests are always captured; everything else goes
// through head sampling on the trace id (deterministic, no rng draw).
func (s *Server) captureTrace(j *Job, latency time.Duration, err error) {
	tr := j.trace
	if tr == nil || s.recorder == nil {
		return
	}
	tr.Fail(err)
	tr.Event(telemetry.StageDone)
	if err == nil && latency < s.cfg.TraceSlowThreshold && !tr.Forced() &&
		!tr.ID().Sample(s.cfg.TraceSample) {
		return
	}
	s.recorder.Put(tr.Snapshot())
	s.nTraces.Add(1)
	s.met.traces.Inc()
}

// Recorder exposes the flight recorder (nil when tracing is disabled) —
// the store behind GET /debug/requests and GET /v1/trace/{job}.
func (s *Server) Recorder() *telemetry.Recorder { return s.recorder }

// Logger returns the server's structured logger (nil when disabled).
func (s *Server) Logger() *slog.Logger { return s.log }

// observeService folds one job's worker-occupancy time into the EWMA
// (α = 0.2) behind retryAfterSeconds.
func (s *Server) observeService(d time.Duration) {
	for {
		old := s.ewmaServiceNs.Load()
		next := int64(d)
		if old > 0 {
			next = old + (int64(d)-old)/5
		}
		if next < 1 {
			next = 1
		}
		if s.ewmaServiceNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSeconds computes the backoff hint returned with 429s from
// observed load: draining the current backlog (queued + running + the
// refused job) across the worker pool at the EWMA per-job service time.
// The result is clamped to [1s, RetryAfterMax] so the header is always
// a positive integer; before any job has completed it falls back to the
// configured RetryAfter.
func (s *Server) retryAfterSeconds() int {
	ewma := time.Duration(s.ewmaServiceNs.Load())
	if ewma <= 0 {
		secs := int(s.cfg.RetryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		return secs
	}
	pending := len(s.queue) + int(s.running.Load()) + 1
	est := time.Duration(pending) * ewma / time.Duration(s.cfg.Workers)
	secs := int((est + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	// A sub-second RetryAfterMax truncates to 0; clamping the cap to ≥ 1
	// keeps the documented "always a positive integer" contract.
	max := int(s.cfg.RetryAfterMax / time.Second)
	if max < 1 {
		max = 1
	}
	if secs > max {
		secs = max
	}
	return secs
}

// SwapProfile atomically installs a new profile, compiled; concurrent
// jobs see either the old or the new one in full. The profile must cover
// the served network, read only features its sensors provide and compile
// (checked by core.System.SetProfile); a refused profile leaves the live
// one serving and is not counted as a swap.
func (s *Server) SwapProfile(p *core.Profile) error {
	if err := s.sys.SetProfile(p); err != nil {
		return err
	}
	s.nSwaps.Add(1)
	s.met.profileSwaps.Inc()
	return nil
}

// Shutdown drains the server: new submissions are refused immediately,
// in-flight jobs finish (and stay retrievable), queued-but-unstarted
// jobs fail with ErrDraining, and the worker pool exits. It returns
// ctx.Err() if the pool has not drained by the context deadline.
// Shutdown is idempotent; concurrent calls all wait for the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		// Safe: all sends are guarded by s.mu and refused once draining
		// is set, so nothing can send on the closed channel.
		close(s.queue)
		s.mu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Status is the service health snapshot behind GET /v1/status (and, per
// district, GET /v1/districts/{id}/status).
type Status struct {
	District      string  `json:"district,omitempty"`
	Network       string  `json:"network"`
	Nodes         int     `json:"nodes"`
	Sensors       int     `json:"sensors"`
	Technique     string  `json:"technique"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCap      int     `json:"queue_cap"`
	Inflight      int     `json:"inflight"`
	Draining      bool    `json:"draining"`
	Submitted     int64   `json:"jobs_submitted"`
	Done          int64   `json:"jobs_done"`
	Failed        int64   `json:"jobs_failed"`
	RejectedFull  int64   `json:"rejected_queue_full"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	ProfileSwaps  int64   `json:"profile_swaps"`

	// Batches is always 0.
	//
	// Deprecated: observe micro-batching was removed; the field stays
	// only because perfbench/layers.go still reads it.
	Batches int64 `json:"observe_batches"`

	// BatchedJobs is always 0.
	//
	// Deprecated: observe micro-batching was removed; the field stays
	// only because perfbench/layers.go still reads it.
	BatchedJobs int64 `json:"observe_batched_jobs"`

	// Runtime health (satellite gauges mirrored from the Go runtime) plus
	// the flight recorder's capture counter.
	Goroutines          int     `json:"goroutines"`
	HeapInuseBytes      uint64  `json:"heap_inuse_bytes"`
	GCPauseTotalSeconds float64 `json:"gc_pause_total_seconds"`
	TracesCaptured      int64   `json:"traces_captured"`
}

// Status reports the current service snapshot. The counters are
// per-server (independent of the telemetry registry, which mirrors them
// on /metrics when telemetry is enabled).
func (s *Server) Status() Status {
	prof := s.sys.Profile()
	technique := ""
	if prof != nil {
		technique = prof.Technique().String()
	}
	net := s.sys.Network()
	health := telemetry.ReadRuntimeHealth()
	return Status{
		District:      s.district,
		Network:       net.Name,
		Nodes:         len(net.Nodes),
		Sensors:       s.sys.Factory().SensorCount(),
		Technique:     technique,
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.queue),
		QueueCap:      s.cfg.QueueSize,
		Inflight:      int(s.running.Load()),
		Draining:      s.isDraining(),
		Submitted:     s.nSubmitted.Load(),
		Done:          s.nDone.Load(),
		Failed:        s.nFailed.Load(),
		RejectedFull:  s.nRejectedFull.Load(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		ProfileSwaps:  s.nSwaps.Load(),

		Goroutines:          health.Goroutines,
		HeapInuseBytes:      health.HeapInuseBytes,
		GCPauseTotalSeconds: health.GCPauseTotalSeconds,
		TracesCaptured:      s.nTraces.Load(),
	}
}
