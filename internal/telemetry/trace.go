package telemetry

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID is a 128-bit per-request identifier, wire-compatible with the
// W3C trace-context trace-id (32 lowercase hex characters).
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the id as 32 lowercase hex characters.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// ParseTraceID parses a 32-hex-character trace id. The all-zero id is
// invalid per the W3C spec and rejected.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return TraceID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return TraceID{}, false
	}
	return id, true
}

// ParseTraceParent extracts the trace id and sampled flag from a W3C
// traceparent header ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex
// flags>"). ok is false for malformed headers, the reserved version ff,
// and the invalid all-zero trace id.
func ParseTraceParent(h string) (id TraceID, sampled bool, ok bool) {
	// version(2) '-' traceid(32) '-' parentid(16) '-' flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, false, false
	}
	version := h[:2]
	if version == "ff" {
		return TraceID{}, false, false
	}
	if version == "00" && len(h) != 55 {
		return TraceID{}, false, false
	}
	id, ok = ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, false, false
	}
	var parent [8]byte
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil {
		return TraceID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceID{}, false, false
	}
	return id, flags[0]&0x01 != 0, true
}

// traceSeq and tracePrefix implement cheap unique id minting: one
// process-wide random 8-byte prefix plus an atomic counter, so a mint is
// an atomic add instead of a syscall per request.
var (
	traceSeq       atomic.Uint64
	tracePrefix    [8]byte
	tracePrefixSet sync.Once
)

// MintTraceID returns a fresh process-unique trace id: 8 random prefix
// bytes (drawn once per process) followed by a big-endian sequence
// number. Minting never touches caller rng streams, preserving the
// project's determinism invariant.
func MintTraceID() TraceID {
	tracePrefixSet.Do(func() {
		if _, err := cryptorand.Read(tracePrefix[:]); err != nil {
			binary.BigEndian.PutUint64(tracePrefix[:], uint64(time.Now().UnixNano())|1)
		}
	})
	var id TraceID
	copy(id[:8], tracePrefix[:])
	binary.BigEndian.PutUint64(id[8:], traceSeq.Add(1))
	return id
}

// Sample is the head-based sampling decision for this id at the given
// rate in [0, 1]: an FNV-1a hash of the id against the rate threshold.
// The decision is a pure function of (id, rate) — deterministic,
// consistent across processes, and free of any rng stream consumption.
func (id TraceID) Sample(rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, b := range id {
		h ^= uint64(b)
		h *= 1099511628211
	}
	// FNV's high bits avalanche poorly for near-sequential inputs (minted
	// ids share a prefix and count upward), so finish with a murmur3-style
	// mix before taking the top 53 bits as a uniform in [0, 1).
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return float64(h>>11)/float64(1<<53) < rate
}

// Stage identifies one typed step of a request's journey through the
// pipeline. Stage names are part of the trace wire format (the
// /debug/requests JSON) and are pinned by the metric-name stability test.
type Stage string

// Trace stages, in rough pipeline order.
const (
	// StageEnqueue marks the job entering the bounded queue.
	StageEnqueue Stage = "enqueue"

	// StageQueueWait marks the dequeue; the event value is the queue
	// wait in seconds.
	StageQueueWait Stage = "queue_wait"

	// StageBaselineMemoHit / StageBaselineMemoMiss record the quiescent
	// baseline lookup on the readings-ingestion path; the value is the
	// pattern hour.
	StageBaselineMemoHit  Stage = "baseline_memo_hit"
	StageBaselineMemoMiss Stage = "baseline_memo_miss"

	// StageEvalCompiled records the compiled profile scoring the
	// observation.
	StageEvalCompiled Stage = "eval_compiled"

	// StageJunctionScatter records the in-place junction→node scatter
	// after the eval; the value is the junction count scattered.
	StageJunctionScatter Stage = "junction_scatter"

	// StageSolverRetry records one rung of the hydraulic retry ladder;
	// the value is the Newton relaxation factor of the re-attempt and the
	// detail distinguishes warm/cold restarts and injected failures.
	StageSolverRetry Stage = "solver_retry"

	// StageFaultDelay / StageFaultFail record fired request-level fault
	// injections (the value of a delay event is the delay in seconds).
	StageFaultDelay Stage = "fault_delay"
	StageFaultFail  Stage = "fault_fail"

	// StageError records a terminal failure; the detail is the error.
	StageError Stage = "error"

	// StageDone marks request completion (success or failure).
	StageDone Stage = "done"
)

// TraceEvent is one recorded stage of a trace. At is the offset from the
// trace's start on the monotonic clock, so event timestamps within one
// trace never go backwards even across wall-clock adjustments.
type TraceEvent struct {
	Stage  Stage         `json:"stage"`
	At     time.Duration `json:"-"`
	Value  float64       `json:"value,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// Trace is one request's append-only journey through the pipeline. A nil
// *Trace is the disabled/unsampled form: every method no-ops after a
// single nil check, so hot paths carry traces unconditionally and pay
// nothing when tracing is off.
//
// A Trace is written by whichever goroutine currently owns the request
// (handler, then worker — sequenced by the job queue) and may be
// snapshotted concurrently by debug endpoints, so appends and reads are
// mutex-guarded. Completed traces are published to a Recorder as
// immutable snapshots.
type Trace struct {
	id    TraceID
	start time.Time

	mu     sync.Mutex
	job    string
	forced bool
	events []TraceEvent
	errMsg string
}

// NewTrace starts a trace with the given id (a zero id mints a fresh
// one). The trace's clock starts now.
func NewTrace(id TraceID) *Trace {
	if id.IsZero() {
		id = MintTraceID()
	}
	return &Trace{id: id, start: time.Now(), events: make([]TraceEvent, 0, 8)}
}

// ID returns the trace id (zero on a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// SetJob associates the trace with a job id.
func (t *Trace) SetJob(job string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.job = job
	t.mu.Unlock()
}

// Job returns the associated job id ("" on a nil trace).
func (t *Trace) Job() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.job
}

// Force marks the trace for unconditional capture regardless of the
// head-sampling decision (used for the W3C sampled flag and by tests).
func (t *Trace) Force() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.forced = true
	t.mu.Unlock()
}

// Forced reports whether capture was forced.
func (t *Trace) Forced() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.forced
}

// Event appends a stage event stamped with the monotonic offset from the
// trace's start.
func (t *Trace) Event(stage Stage) { t.append(stage, 0, "") }

// EventValue is Event with a numeric payload (a duration, an hour, a
// relaxation factor — stage-dependent).
func (t *Trace) EventValue(stage Stage, value float64) { t.append(stage, value, "") }

// EventDetail is Event with both a numeric and a short string payload.
func (t *Trace) EventDetail(stage Stage, value float64, detail string) {
	t.append(stage, value, detail)
}

func (t *Trace) append(stage Stage, value float64, detail string) {
	if t == nil {
		return
	}
	at := time.Since(t.start)
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{Stage: stage, At: at, Value: value, Detail: detail})
	t.mu.Unlock()
}

// Fail records the terminal error as both an error event and the trace's
// error field.
func (t *Trace) Fail(err error) {
	if t == nil || err == nil {
		return
	}
	at := time.Since(t.start)
	msg := err.Error()
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{Stage: StageError, At: at, Detail: msg})
	t.errMsg = msg
	t.mu.Unlock()
}

// Snapshot copies the trace into an immutable wire form. Safe to call
// while the trace is still being written (the snapshot covers everything
// appended so far); returns nil on a nil trace.
func (t *Trace) Snapshot() *TraceSnapshot {
	if t == nil {
		return nil
	}
	dur := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]TraceEventSnapshot, len(t.events))
	for i, e := range t.events {
		events[i] = TraceEventSnapshot{
			Stage:     string(e.Stage),
			AtSeconds: e.At.Seconds(),
			Value:     e.Value,
			Detail:    e.Detail,
		}
	}
	return &TraceSnapshot{
		TraceID:         t.id.String(),
		Job:             t.job,
		Start:           t.start,
		DurationSeconds: dur.Seconds(),
		Error:           t.errMsg,
		Events:          events,
	}
}

// TraceSnapshot is the immutable JSON wire form of a completed (or
// in-flight) trace, served by GET /debug/requests and GET /v1/trace/{job}.
type TraceSnapshot struct {
	TraceID         string               `json:"trace_id"`
	Job             string               `json:"job,omitempty"`
	Start           time.Time            `json:"start"`
	DurationSeconds float64              `json:"duration_seconds"`
	Error           string               `json:"error,omitempty"`
	Events          []TraceEventSnapshot `json:"events"`
}

// TraceEventSnapshot is one stage event on the wire. AtSeconds is the
// monotonic offset from the trace start.
type TraceEventSnapshot struct {
	Stage     string  `json:"stage"`
	AtSeconds float64 `json:"at_seconds"`
	Value     float64 `json:"value,omitempty"`
	Detail    string  `json:"detail,omitempty"`
}

// String renders a compact one-line timeline, handy in test failures and
// log messages.
func (s *TraceSnapshot) String() string {
	if s == nil {
		return "<nil trace>"
	}
	out := fmt.Sprintf("trace %s job=%s %.6fs", s.TraceID, s.Job, s.DurationSeconds)
	for _, e := range s.Events {
		out += fmt.Sprintf(" [%s@%.6fs]", e.Stage, e.AtSeconds)
	}
	return out
}

// traceKey is the context key trace propagation rides on.
type traceKey struct{}

// ContextWithTrace returns ctx carrying tr. A nil trace returns ctx
// unchanged, so untraced requests never allocate a context wrapper.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom extracts the trace carried by ctx, or nil. The nil result is
// directly usable: every Trace method no-ops on a nil receiver.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}
