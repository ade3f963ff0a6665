package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// referenceDecode is the observe body contract as encoding/json states
// it: one value through a Decoder with DisallowUnknownFields, and only
// whitespace after it.
func referenceDecode(body []byte) (ObserveRequest, error) {
	var req ObserveRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return ObserveRequest{}, err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return ObserveRequest{}, errors.New("trailing bytes")
	}
	return req, nil
}

// requestDiff names the first difference between two decoded requests,
// comparing float bits and telling nil from empty slices; "" if none.
func requestDiff(a, b ObserveRequest) string {
	floats := func(name string, x, y []float64) string {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return fmt.Sprintf("%s: %v vs %v", name, x, y)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Sprintf("%s[%d]: %v vs %v", name, i, x[i], y[i])
			}
		}
		return ""
	}
	if d := floats("features", a.Features, b.Features); d != "" {
		return d
	}
	if d := floats("readings", a.Readings, b.Readings); d != "" {
		return d
	}
	if (a.PatternHour == nil) != (b.PatternHour == nil) || a.PatternHour != nil && *a.PatternHour != *b.PatternHour {
		return "pattern_hour"
	}
	if (a.TemperatureF == nil) != (b.TemperatureF == nil) ||
		a.TemperatureF != nil && math.Float64bits(*a.TemperatureF) != math.Float64bits(*b.TemperatureF) {
		return "temperature_f"
	}
	if (a.FrozenNodes == nil) != (b.FrozenNodes == nil) || fmt.Sprint(a.FrozenNodes) != fmt.Sprint(b.FrozenNodes) {
		return fmt.Sprintf("frozen_nodes: %v vs %v", a.FrozenNodes, b.FrozenNodes)
	}
	if (a.Reports == nil) != (b.Reports == nil) || len(a.Reports) != len(b.Reports) {
		return fmt.Sprintf("reports: %v vs %v", a.Reports, b.Reports)
	}
	for i, r := range a.Reports {
		s := b.Reports[i]
		if math.Float64bits(r.X) != math.Float64bits(s.X) || math.Float64bits(r.Y) != math.Float64bits(s.Y) || r.Slot != s.Slot {
			return fmt.Sprintf("reports[%d]: %v vs %v", i, r, s)
		}
	}
	if math.Float64bits(a.GammaM) != math.Float64bits(b.GammaM) || a.Seed != b.Seed || a.Wait != b.Wait || a.TraceParent != b.TraceParent {
		return fmt.Sprintf("scalars: %+v vs %+v", a, b)
	}
	return ""
}

// observeBodies returns a features body and a readings body shaped like
// the benchmark's observe traffic: 130 sensors; the readings body with a
// pattern hour, a temperature, frozen nodes and two reports.
func observeBodies(t testing.TB) (features, readings []byte) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 130)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-4))
	}
	features, err := json.Marshal(ObserveRequest{Features: vals})
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		vals[i] = 40 + 20*rng.Float64()
	}
	hour, temp := 7, 18.0
	readings, err = json.Marshal(ObserveRequest{Readings: vals, PatternHour: &hour, TemperatureF: &temp,
		FrozenNodes: []int{3, 17, 40},
		Reports:     []ReportIn{{X: 1203.5, Y: -88.25, Slot: 2}, {X: 1190.125, Y: -91, Slot: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	return features, readings
}

// observeAllocFactor and observeAllocSlack bound what the decoder may
// allocate for a body of n bytes: observeAllocFactor·n +
// observeAllocSlack. Decoded slices take at most 8 bytes per body byte
// (a one-digit number and its comma), a reports array at most 24 per
// '{', and growth past a repeated key's earlier array at most doubles.
// The slack covers the error message and what the fuzzing engine's own
// goroutines allocate between the two MemStats reads.
const (
	observeAllocFactor = 64
	observeAllocSlack  = 64 << 10
)

// FuzzObserveBody holds the observe decoder to encoding/json: for any
// body both accept or both refuse, and an accepted body decodes to the
// same request, float bits and nil-versus-empty included. A refusal is a
// *RequestError with the zero request, and decoding allocates at most
// observeAllocFactor·n + observeAllocSlack bytes.
func FuzzObserveBody(f *testing.F) {
	features, readings := observeBodies(f)
	f.Add(features)
	f.Add(readings)
	for _, seed := range []string{
		`{"Features":[1,2]}`,
		`{"FEATURES":[1],"ſeed":3,"WAIT":true,"Pattern_Hour":2}`,
		`{"fe\u0061tures":[1],"\u017Feed":2,"w\u0041it":true}`,
		`{"features":[1],"\ud834\udd1e":1}`,
		`{"features":[1],"x\ud800":1}`,
		`{"features":[1],"seed":2,"𝄞":1}`,
		`{"features":[0.5],"readings":null,"reports":[null,{"X":1,"slot":null}]}`,
		`{"features":[1,2,3],"features":[null,7]}`,
		`{"reports":[{"x":1,"y":2,"slot":3}],"reports":[{"x":5},null]}`,
		`{"pattern_hour":3,"pattern_hour":null,"temperature_f":null,"gamma_m":null,"wait":null}`,
		`{"features":[1e400]}`,
		`{"features":[01]}`,
		`{"readings":[1],"pattern_hour":1.0}`,
		`{"pattern_hour":1e2}`,
		`{"seed":9223372036854775808}`,
		`{"features":[-0,1e-400,4.9e-324,1E+2]}`,
		`{"features":[1]} `,
		`{"features":[1]}x`,
		`{"features":[1]}{}`,
		`null`,
		`null x`,
		`[]`,
		`{"features":[1],}`,
		`{"trace_parent":"x"}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := referenceDecode(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := decodeObserveRequest(body)
		runtime.ReadMemStats(&after)
		if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(observeAllocFactor*len(body)+observeAllocSlack); alloc > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(body), alloc, limit)
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decoder error %v, encoding/json error %v, body %q", err, wantErr, body)
		}
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if d := requestDiff(got, ObserveRequest{}); d != "" {
				t.Fatalf("refused body left a partial request: %s", d)
			}
			return
		}
		if d := requestDiff(got, want); d != "" {
			t.Fatalf("body %q decodes differently: %s", body, d)
		}
	})
}

// randomJobResponse draws a reply exercising the encoder's edge cases:
// nil and empty slices, signed zeros, the exponent-form cutoffs,
// subnormals and random bit patterns, and strings with quotes, control
// bytes, HTML characters, U+2028/U+2029 and invalid UTF-8.
func randomJobResponse(rng *rand.Rand) jobResponse {
	specials := []float64{0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.999999e-7, 1e21, -1e21,
		1e20, 999999999999999900000, 5e-324, 2.2250738585072014e-308, math.MaxFloat64, 0.1, 1, -3.5e-9, 123456789}
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return rng.Float64()
		default:
			for {
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return f
				}
			}
		}
	}
	pieces := []string{"a", "N-17", `"`, `\`, "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f",
		"<", ">", "&", "\u2028", "\u2029", "é", "😀", "\xff", "\xe2\x80", "\xed\xa0\x80", "\ufffd"}
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(6); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	ints := func() []int {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		v := make([]int, rng.Intn(5)+1)
		for i := range v {
			v[i] = rng.Intn(2000) - 1000
		}
		if rng.Intn(4) == 0 {
			v[0] = math.MinInt64
		}
		return v
	}
	resp := jobResponse{Job: str(), State: JobState(str())}
	if rng.Intn(2) == 0 {
		resp.Error, resp.Code = str(), str()
	}
	if rng.Intn(5) == 0 {
		return resp
	}
	res := &Result{LeakNodes: ints(), HumanAdded: ints(), LatencySeconds: float()}
	if rng.Intn(4) > 0 {
		res.LeakIDs = make([]string, rng.Intn(4))
		for i := range res.LeakIDs {
			res.LeakIDs[i] = str()
		}
	}
	if rng.Intn(6) > 0 {
		res.Proba = make([]float64, rng.Intn(12))
		for i := range res.Proba {
			res.Proba[i] = float()
		}
	}
	resp.Result = res
	return resp
}

// TestJobReplyMatchesEncoder requires the direct reply encoder to write
// exactly what json.Encoder with SetEscapeHTML(false) writes.
func TestJobReplyMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		resp := randomJobResponse(rng)
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(resp); err != nil {
			t.Fatalf("json.Encoder: %v", err)
		}
		got, err := appendJobResponse(nil, &resp)
		if err != nil {
			t.Fatalf("appendJobResponse(%+v): %v", resp, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("reply %d differs:\n got %q\nwant %q", i, got, want.Bytes())
		}
	}
}

// TestUnencodableReplyIs500 covers both reply writers: a value holding a
// non-finite float answers 500 with the "internal" error envelope, not
// the intended status with an empty body.
func TestUnencodableReplyIs500(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res := &Result{LeakNodes: []int{1}, LeakIDs: []string{"J1"}, Proba: []float64{0.5, bad}}
		j := &Job{id: "j-00000001", state: JobDone, result: res}
		for name, write := range map[string]func(http.ResponseWriter){
			"writeJSON": func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, res) },
			"writeJob":  func(w http.ResponseWriter) { (&Server{}).writeJob(w, j) },
		} {
			rec := httptest.NewRecorder()
			write(rec)
			var env errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s(%v): body %q: %v", name, bad, rec.Body.Bytes(), err)
			}
			if rec.Code != http.StatusInternalServerError || env.Code != "internal" || env.Error == "" {
				t.Fatalf("%s(%v): status %d, envelope %+v", name, bad, rec.Code, env)
			}
		}
	}
}

// TestObserveTrailingBytes400: whitespace after the body's object is
// accepted; anything else is a 400 with the bad_request envelope.
func TestObserveTrailingBytes400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(ObserveRequest{Features: testFeatures(s.System(), 3)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tail string
		want int
	}{{" \n\t\r", http.StatusAccepted}, {"x", http.StatusBadRequest}, {" {}", http.StatusBadRequest}} {
		resp, err := ts.Client().Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(append(body, tc.tail...)))
		if err != nil {
			t.Fatal(err)
		}
		var env errorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != tc.want {
			t.Fatalf("tail %q: status %d (%v), want %d", tc.tail, resp.StatusCode, err, tc.want)
		}
		if tc.want == http.StatusBadRequest && env.Code != "bad_request" {
			t.Fatalf("tail %q: envelope %+v", tc.tail, env)
		}
	}
}

var benchReq ObserveRequest

// BenchmarkObserveCodec times the observe codec alone: decoding a
// features body and a readings body, and encoding a finished job's reply.
func BenchmarkObserveCodec(b *testing.B) {
	features, readings := observeBodies(b)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"decode-features", features}, {"decode-readings", readings}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				req, err := decodeObserveRequest(bc.body)
				if err != nil {
					b.Fatal(err)
				}
				benchReq = req
			}
		})
	}
	b.Run("encode-reply", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		proba := make([]float64, 97)
		for i := range proba {
			proba[i] = rng.Float64()
		}
		resp := &jobResponse{Job: "j-00000001", State: JobDone, Result: &Result{
			LeakNodes: []int{12, 40}, LeakIDs: []string{"J-12", "J-40"}, Proba: proba, LatencySeconds: 0.000412}}
		rec := httptest.NewRecorder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Body.Reset()
			writeJobResponse(rec, http.StatusOK, resp)
		}
	})
}
