package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point. Spans of one request or phase share a Trace id;
// Parent is the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, trace string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: -1})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name, trace string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Count   int     `json:"count"`
	TotalS  float64 `json:"total_s"`
	SelfS   float64 `json:"self_s"`
	SelfP50 float64 `json:"self_p50_us"`
}

// selfTimes computes, per span name, the total duration and the self
// time: each span's duration minus the part of its interval covered by
// the union of its children.
func (t *tracer) selfTimes() map[string]*selfStat {
	out := map[string]*selfStat{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	selfs := map[string][]float64{}
	for _, s := range t.spans {
		if s.End < s.Start {
			continue // never closed
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			cs := t.spans[c]
			a, b := max(cs.Start, s.Start), min(cs.End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, curA, curB int64 = 0, -1, -1
		for _, v := range ivs {
			if v.a > curB {
				covered += curB - curA
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		covered += curB - curA
		dur := s.End - s.Start
		self := dur - covered
		st := out[s.Name]
		if st == nil {
			st = &selfStat{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalS += float64(dur) / 1e9
		st.SelfS += float64(self) / 1e9
		selfs[s.Name] = append(selfs[s.Name], float64(self)/1e3)
	}
	for name, v := range selfs {
		out[name].SelfP50 = median(v)
	}
	return out
}

// write dumps every span plus the per-name summary and extra as JSON.
func (t *tracer) write(path string, extra any) error {
	if t == nil {
		return nil
	}
	summary := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		Spans   []span               `json:"spans"`
		Summary map[string]*selfStat `json:"summary"`
		Extra   any                  `json:"breakdown"`
	}{t.spans, summary, extra}
	raw, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, raw, 0o644)
}
